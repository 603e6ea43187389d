// Package obs is the dependency-free observability layer of the analysis
// fleet: a per-job span recorder, wire/export formats for the resulting
// trace (Chrome trace-event JSON for Perfetto/about:tracing, indented
// text for terminals), and a hand-encoded pprof profile.proto writer for
// per-workload execution-effort profiles (`go tool pprof` reads them).
//
// The span model is deliberately small. A job produces one Trace: a flat
// slice of Spans with parent links (indexes into the slice, -1 for the
// root), wall-clock start timestamps, durations, and string key/value
// attrs. Spans record stage boundaries — queue wait, profile, build-cus,
// a remote hop — never per-access events, so recording costs a handful of
// allocations per job and nothing on the profiler's hot path.
//
// Traces cross nodes: a coordinator grafts the span list a worker
// returned in its job result under its own "remote" span (Recorder.Graft),
// shifting the worker's timestamps by an estimated per-hop clock offset so
// the worker's queue/profile/discover spans nest inline in the
// coordinator's trace, with the estimate recorded on the hop.
package obs

import "time"

// Span is one timed interval of a job, in the wire form that crosses
// nodes inside job results (all times are integer nanoseconds so the JSON
// round-trips exactly).
type Span struct {
	// Name is the stage or interval name ("job", "queue", "profile",
	// "remote", ...).
	Name string `json:"name"`
	// Start is the span's wall-clock start in Unix nanoseconds, on the
	// clock of the node that recorded it (grafting shifts remote spans
	// onto the local clock).
	Start int64 `json:"start_unix_ns"`
	// Dur is the span's duration in nanoseconds.
	Dur int64 `json:"dur_ns"`
	// Parent is the index of the enclosing span in Trace.Spans, -1 for
	// the root.
	Parent int `json:"parent"`
	// Node names the node that recorded the span; empty means the node
	// that owns the trace (a coordinator sets it to the peer URL when
	// grafting worker spans).
	Node string `json:"node,omitempty"`
	// Attrs carries key/value annotations (cache hit, peer, instruction
	// count, clock skew...).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// End returns the span's end time in Unix nanoseconds.
func (s Span) End() int64 { return s.Start + s.Dur }

// Trace is one job's complete span tree.
type Trace struct {
	// ID identifies the trace fleet-wide: the coordinator's job id, or
	// the client-supplied X-DP-Trace value, propagated to workers.
	ID    string `json:"id"`
	Spans []Span `json:"spans"`
}

// Recorder captures the spans of one job. It is single-owner state: the
// engine worker running the job starts and ends spans in LIFO order
// (matching the pipeline's nested stage execution), so no locking is
// needed or provided.
type Recorder struct {
	id    string
	spans []Span
	stack []int // indexes of open spans, innermost last
}

// NewRecorder returns a recorder for one job. The id becomes Trace.ID.
func NewRecorder(id string) *Recorder { return &Recorder{id: id} }

// ID returns the trace id the recorder was created with.
func (r *Recorder) ID() string { return r.id }

// Start opens a span named name as a child of the innermost open span
// (or as a root) and returns its index.
func (r *Recorder) Start(name string) int {
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	i := len(r.spans)
	r.spans = append(r.spans, Span{
		Name:   name,
		Start:  time.Now().UnixNano(),
		Parent: parent,
	})
	r.stack = append(r.stack, i)
	return i
}

// End closes the span at index i, popping it (and, defensively, anything
// opened after it and never closed) off the open stack.
func (r *Recorder) End(i int) {
	if i < 0 || i >= len(r.spans) {
		return
	}
	r.spans[i].Dur = time.Now().UnixNano() - r.spans[i].Start
	for n := len(r.stack); n > 0; n-- {
		if r.stack[n-1] == i {
			r.stack = r.stack[:n-1]
			break
		}
	}
}

// Annotate attaches a key/value attr to the innermost open span. With no
// span open it is a no-op.
func (r *Recorder) Annotate(key, value string) {
	if n := len(r.stack); n > 0 {
		r.AnnotateSpan(r.stack[n-1], key, value)
	}
}

// AnnotateSpan attaches a key/value attr to the span at index i.
func (r *Recorder) AnnotateSpan(i int, key, value string) {
	if i < 0 || i >= len(r.spans) {
		return
	}
	if r.spans[i].Attrs == nil {
		r.spans[i].Attrs = map[string]string{}
	}
	r.spans[i].Attrs[key] = value
}

// AddInterval records an already-elapsed interval — e.g. the queue wait
// measured between enqueue and worker pickup — as a closed child of the
// span at index parent (-1 for a root). It returns the new span's index.
func (r *Recorder) AddInterval(name string, start, end time.Time, parent int) int {
	if parent >= len(r.spans) {
		parent = -1
	}
	d := end.Sub(start)
	if d < 0 {
		d = 0
	}
	i := len(r.spans)
	r.spans = append(r.spans, Span{
		Name:   name,
		Start:  start.UnixNano(),
		Dur:    int64(d),
		Parent: parent,
	})
	return i
}

// Graft splices the span list a remote worker returned under the
// innermost open span (the coordinator's "remote" hop). Spans whose Node
// is empty are stamped with node (the peer URL). The worker's timestamps
// are on the worker's clock; Graft estimates the per-hop clock offset by
// centering the worker's root interval inside the still-open local span
// (the worker's work happened strictly within the hop, so the residual —
// network latency aside — is clock skew), shifts every grafted span by
// it, and returns the estimate for the caller to record on the hop.
func (r *Recorder) Graft(node string, spans []Span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	// The worker's root anchors the shift; a span list without one (not
	// produced by any Recorder) grafts unshifted.
	root := -1
	for i, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) {
			root = i
			break
		}
	}
	var shift int64
	if parent >= 0 && root >= 0 {
		t0 := r.spans[parent].Start
		hop := time.Now().UnixNano() - t0
		w := spans[root]
		if slack := hop - w.Dur; slack > 0 {
			shift = w.Start - (t0 + slack/2)
		} else {
			// The worker claims more time than the whole hop took: clocks
			// disagree beyond repair; left-align so the tree stays readable.
			shift = w.Start - t0
		}
	}
	base := len(r.spans)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			s.Parent += base
		} else {
			s.Parent = parent
		}
		s.Start -= shift
		if s.Node == "" {
			s.Node = node
		}
		r.spans = append(r.spans, s)
	}
	return time.Duration(shift)
}

// Spans returns the spans recorded so far without closing any: a span still
// open has zero duration. The slice is the recorder's own, valid until the
// next recording call.
func (r *Recorder) Spans() []Span { return r.spans }

// Trace closes any still-open spans and returns the recorded trace. The
// spans are copied; the recorder can keep recording (though jobs normally
// call Trace exactly once, at the end).
func (r *Recorder) Trace() *Trace {
	for i := len(r.stack); i > 0; i-- {
		r.End(r.stack[i-1])
	}
	t := &Trace{ID: r.id, Spans: make([]Span, len(r.spans))}
	copy(t.Spans, r.spans)
	return t
}
