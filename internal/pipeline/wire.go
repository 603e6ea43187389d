package pipeline

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"discopop/internal/discovery"
	"discopop/internal/ir"
	"discopop/internal/obs"
)

// WireSuggestion is one ranked parallelization opportunity as it crosses
// the wire.
type WireSuggestion struct {
	Rank      int     `json:"rank"`
	Kind      string  `json:"kind"`
	Loc       string  `json:"loc"`
	Coverage  float64 `json:"coverage"`
	Speedup   float64 `json:"speedup"`
	Imbalance float64 `json:"imbalance"`
	Score     float64 `json:"score"`
	Notes     string  `json:"notes,omitempty"`
}

// WireReport is the summary of a completed analysis and the one definition
// of its JSON: dp-serve renders it as a job's "result" and journals it, a
// peer client decodes it, and the report memo holds it. Summarize builds it
// from a finished job, Context.FromWire reads it back.
type WireReport struct {
	Instrs      int64            `json:"instrs"`
	Deps        int              `json:"deps"`
	CUs         int              `json:"cus"`
	CacheHit    bool             `json:"cache_hit"`
	ElapsedMS   float64          `json:"elapsed_ms"`
	QueueMS     float64          `json:"queue_ms"`
	Suggestions []WireSuggestion `json:"suggestions"`
	// Peer is the base URL of the worker that served the analysis, empty when
	// it ran where it was submitted. The peer client overwrites what a peer
	// sent.
	Peer string `json:"peer,omitempty"`
	// TraceID and Spans carry the job's span tree (queue wait and every
	// pipeline stage) in the serving node's clock domain: a coordinator
	// grafts them under its own remote span, GET /v1/jobs/{id}/trace renders
	// them.
	TraceID string     `json:"trace_id,omitempty"`
	Spans   []obs.Span `json:"spans,omitempty"`
}

// maxSuggestions caps the suggestions in a WireReport; the full ranking is
// available to embedders through the pipeline API, not over HTTP.
const maxSuggestions = 100

// Summarize renders a successfully finished job in its wire form.
func Summarize(r *JobResult) *WireReport {
	rep := r.Report
	out := summary(rep)
	out.CacheHit = rep.CacheHit
	out.ElapsedMS = float64(r.Elapsed) / float64(time.Millisecond)
	out.QueueMS = float64(r.QueueLat) / float64(time.Millisecond)
	out.Peer = rep.RemotePeer
	if r.Trace != nil {
		out.TraceID = r.Trace.ID
		out.Spans = r.Trace.Spans
	}
	return out
}

// summary is what a report says, independent of the job that produced it:
// its counts and its best suggestions.
func summary(rep *Report) *WireReport {
	out := &WireReport{Instrs: rep.Instrs, Deps: rep.NumDeps(), CUs: rep.NumCUs()}
	n := 0 // Ranked is best-first; the tail is all zero-score
	for n < len(rep.Ranked) && n < maxSuggestions && rep.Ranked[n].Score > 0 {
		n++
	}
	if n > 0 { // exactly sized: a memo and the job store keep these
		out.Suggestions = make([]WireSuggestion, 0, n)
	}
	for _, s := range rep.Ranked[:n] {
		out.Suggestions = append(out.Suggestions, WireSuggestion{
			Rank:      len(out.Suggestions) + 1,
			Kind:      s.Kind.String(),
			Loc:       s.Loc.String(),
			Coverage:  s.Coverage,
			Speedup:   s.LocalSpeedup,
			Imbalance: s.Imbalance,
			Score:     s.Score,
			Notes:     s.Notes,
		})
	}
	return out
}

// FromWire fills the Context's products from a finished report — counts,
// cache flag and ranked suggestions — resolving suggestion locations
// against c.Mod, so Report.SuggestionFor and region-keyed tooling see the
// job's own region pointers.
func (c *Context) FromWire(rep *WireReport) error {
	c.Instrs, c.DepCount, c.CUCount = rep.Instrs, rep.Deps, rep.CUs
	c.CacheHit = rep.CacheHit
	ranked := make([]*discovery.Suggestion, 0, len(rep.Suggestions))
	for _, w := range rep.Suggestions {
		kind, ok := discovery.ParseKind(w.Kind)
		if !ok {
			return fmt.Errorf("pipeline: unknown suggestion kind %q", w.Kind)
		}
		loc, err := parseLoc(w.Loc)
		if err != nil {
			return err
		}
		sg := &discovery.Suggestion{
			Kind:         kind,
			Loc:          loc,
			Coverage:     w.Coverage,
			LocalSpeedup: w.Speedup,
			Imbalance:    w.Imbalance,
			Score:        w.Score,
			Notes:        w.Notes,
		}
		// Loop suggestions anchor at the loop's start line, so the
		// innermost region containing the location is the loop itself. As
		// in discovery, a loop suggestion names its Region and a task
		// suggestion its host Func.
		if r := c.Mod.RegionAt(loc); r != nil {
			if r.Kind == ir.RLoop && r.Start == loc {
				sg.Region = r
			} else {
				sg.Func = r.Func
			}
		}
		ranked = append(ranked, sg)
	}
	c.Ranked = ranked
	return nil
}

// parseLoc inverts ir.Loc.String ("file:line").
func parseLoc(s string) (ir.Loc, error) {
	f, l, ok := strings.Cut(s, ":")
	if !ok {
		return ir.Loc{}, fmt.Errorf("pipeline: malformed location %q", s)
	}
	file, err := strconv.ParseInt(f, 10, 32)
	if err != nil {
		return ir.Loc{}, fmt.Errorf("pipeline: malformed location %q", s)
	}
	line, err := strconv.ParseInt(l, 10, 32)
	if err != nil {
		return ir.Loc{}, fmt.Errorf("pipeline: malformed location %q", s)
	}
	return ir.Loc{File: int32(file), Line: int32(line)}, nil
}
