package server

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"discopop/internal/journal"
	"discopop/internal/pipeline"
)

// Job lifecycle states. There is no "running" state: the engine reports
// only completion, so a job is queued (accepted, possibly executing) until
// its result lands.
const (
	jobQueued = "queued"
	jobDone   = "done"
	jobFailed = "failed"
)

// errInterrupted is the terminal error recorded for jobs that were in
// flight when the node died and came back only through journal replay.
const errInterrupted = "interrupted: node restarted mid-job"

// jobRecord tracks one submission through the service. Mutable fields are
// guarded by the owning jobStore's lock until the result is recorded; from
// then on (doneCh closes exactly once at that moment) the record is never
// written again.
type jobRecord struct {
	ID        string
	Workload  string
	Scale     int
	State     string
	Submitted time.Time
	Finished  time.Time
	Error     string
	Result    *pipeline.WireReport // the wire form is the stored form

	// Client is the authenticated identity that submitted the job
	// (anonClient when auth is disabled); IdemKey is its Idempotency-Key
	// header, empty when none was sent. Together they key the dedupe
	// index.
	Client  string
	IdemKey string

	doneCh chan struct{}
}

// jobView is the JSON shape of one record (a snapshot — never the live
// record, which workers keep mutating).
type jobView struct {
	ID        string               `json:"id"`
	Workload  string               `json:"workload"`
	Scale     int                  `json:"scale,omitempty"`
	State     string               `json:"state"`
	Client    string               `json:"client,omitempty"`
	Submitted time.Time            `json:"submitted"`
	Finished  *time.Time           `json:"finished,omitempty"`
	Error     string               `json:"error,omitempty"`
	Result    *pipeline.WireReport `json:"result,omitempty"`
}

// jobStore is the bounded, concurrency-safe record index. Completed
// records beyond the cap are evicted oldest-first; queued records are
// never evicted (their results are still owed to the collector).
type jobStore struct {
	mu     sync.Mutex
	max    int
	m      map[string]*jobRecord
	order  []string // insertion order, for eviction
	nextid int64
	// idem maps client+Idempotency-Key to the job that claimed it, so a
	// retried submission returns the original record instead of re-running
	// the analysis. Entries live exactly as long as their record.
	idem map[string]string
	// recent is a bounded ring of finished-job span summaries, newest
	// last. It outlives record eviction, so a job pushed out of m by the
	// store cap stays diagnosable through GET /v1/debug/recent.
	recent []recentEntry
}

// recentMax bounds the jobStore.recent ring.
const recentMax = 64

// recentEntry is one finished job's span summary: enough to spot which
// stage ate the time without the full trace.
type recentEntry struct {
	ID       string             `json:"id"`
	TraceID  string             `json:"trace_id,omitempty"`
	Client   string             `json:"client,omitempty"`
	Workload string             `json:"workload"`
	State    string             `json:"state"`
	Error    string             `json:"error,omitempty"`
	Finished time.Time          `json:"finished"`
	TotalMS  float64            `json:"total_ms"`
	QueueMS  float64            `json:"queue_ms"`
	StageMS  map[string]float64 `json:"stage_ms,omitempty"`
}

func (js *jobStore) init(max int) {
	js.max = max
	js.m = map[string]*jobRecord{}
	js.idem = map[string]string{}
}

// idemIndexKey scopes an idempotency key to its client: two tenants using
// the same key must not dedupe onto each other's jobs.
func idemIndexKey(client, key string) string { return client + "\x00" + key }

func (js *jobStore) nextID() string {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.nextid++
	return fmt.Sprintf("j%06d", js.nextid)
}

// add inserts a record, claiming its idempotency key if it carries one.
// When the key is already claimed by a live record, that record is
// returned instead and nothing is inserted: the caller answers with the
// original job rather than re-running the analysis.
func (js *jobStore) add(rec *jobRecord) (existing *jobRecord) {
	js.mu.Lock()
	defer js.mu.Unlock()
	if rec.IdemKey != "" {
		if id, ok := js.idem[idemIndexKey(rec.Client, rec.IdemKey)]; ok {
			if prior, live := js.m[id]; live {
				return prior
			}
		}
		js.idem[idemIndexKey(rec.Client, rec.IdemKey)] = rec.ID
	}
	js.m[rec.ID] = rec
	js.order = append(js.order, rec.ID)
	js.trimLocked()
	return nil
}

// trimLocked evicts the oldest finished records beyond the cap. Callers
// hold js.mu.
func (js *jobStore) trimLocked() {
	for len(js.m) > js.max {
		evicted := false
		for i, id := range js.order {
			old, live := js.m[id]
			if live && old.State == jobQueued {
				continue
			}
			if live {
				js.removeLocked(old)
			}
			js.order = append(js.order[:i], js.order[i+1:]...)
			evicted = true
			break
		}
		if !evicted {
			break // everything left is queued; transiently over cap
		}
	}
}

// removeLocked deletes a record and its idempotency claim. Callers hold
// js.mu and fix up js.order themselves.
func (js *jobStore) removeLocked(rec *jobRecord) {
	delete(js.m, rec.ID)
	if rec.IdemKey != "" {
		key := idemIndexKey(rec.Client, rec.IdemKey)
		if js.idem[key] == rec.ID {
			delete(js.idem, key)
		}
	}
}

// drop removes a record that never made it into the engine (queue full).
func (js *jobStore) drop(id string) {
	js.mu.Lock()
	defer js.mu.Unlock()
	rec, ok := js.m[id]
	if !ok {
		return
	}
	js.removeLocked(rec)
	for i, oid := range js.order {
		if oid == id {
			js.order = append(js.order[:i], js.order[i+1:]...)
			break
		}
	}
}

func (js *jobStore) get(id string) (*jobRecord, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	rec, ok := js.m[id]
	return rec, ok
}

// finish folds one engine result into its record and returns the record,
// now terminal and safe to read without the store lock; nil when the record
// was evicted or dropped in the meantime (nothing to journal; the quota
// in-flight slot was released with it).
func (js *jobStore) finish(r *pipeline.JobResult) *jobRecord {
	js.mu.Lock()
	defer js.mu.Unlock()
	rec, ok := js.m[r.Name]
	if !ok {
		return nil
	}
	rec.Finished = time.Now()
	if r.Err != nil {
		rec.State = jobFailed
		rec.Error = r.Err.Error()
	} else {
		rec.State = jobDone
		rec.Result = pipeline.Summarize(r)
	}
	close(rec.doneCh)
	js.recent = append(js.recent, recentEntryFor(rec, r))
	if len(js.recent) > recentMax {
		js.recent = js.recent[len(js.recent)-recentMax:]
	}
	return rec
}

// acceptedRecord and finishedRecord are the journalled forms of a record's
// two transitions: what is appended when the job is accepted and when it
// settles, and what a compaction snapshot writes for it.
func acceptedRecord(rec *jobRecord) journal.Record {
	return journal.Record{
		Op: journal.OpAccepted, ID: rec.ID, Time: rec.Submitted,
		Workload: rec.Workload, Scale: rec.Scale,
		Client: rec.Client, IdemKey: rec.IdemKey,
	}
}

func finishedRecord(rec *jobRecord) journal.Record {
	jr := journal.Record{
		Op: journal.OpFinished, ID: rec.ID, Time: rec.Finished,
		State: rec.State, Error: rec.Error,
	}
	if rec.Result != nil {
		if raw, err := json.Marshal(rec.Result); err == nil {
			jr.Result = raw
		}
	}
	return jr
}

// recentEntryFor condenses a finished job into its ring entry. Stage
// timings come from the trace's depth-1 spans (children of the job
// root), counting only locally-executed spans — a coordinator's grafted
// worker spans are reachable through the full trace, not the summary.
func recentEntryFor(rec *jobRecord, r *pipeline.JobResult) recentEntry {
	e := recentEntry{
		ID: rec.ID, Client: rec.Client, Workload: rec.Workload,
		State: rec.State, Error: rec.Error, Finished: rec.Finished,
		TotalMS: float64(r.Elapsed) / float64(time.Millisecond),
		QueueMS: float64(r.QueueLat) / float64(time.Millisecond),
	}
	if r.Trace == nil {
		return e
	}
	e.TraceID = r.Trace.ID
	root := -1
	for i, sp := range r.Trace.Spans {
		if sp.Parent < 0 && sp.Node == "" {
			root = i
			break
		}
	}
	for _, sp := range r.Trace.Spans {
		if sp.Parent != root || sp.Node != "" || sp.Name == "queue" {
			continue
		}
		if e.StageMS == nil {
			e.StageMS = map[string]float64{}
		}
		e.StageMS[sp.Name] += float64(sp.Dur) / float64(time.Millisecond)
	}
	return e
}

// recentList snapshots the finished-job ring, newest first.
func (js *jobStore) recentList() []recentEntry {
	js.mu.Lock()
	defer js.mu.Unlock()
	out := make([]recentEntry, len(js.recent))
	for i, e := range js.recent {
		out[len(out)-1-i] = e
	}
	return out
}

// restore rebuilds the store from replayed journal records: finished jobs
// come back terminal with their results, and jobs that were accepted but
// never finished — in flight when the node died — are marked
// failed (interrupted) so their long-pollers get an answer instead of a
// job that never resolves. Idempotency claims are re-registered, the ID
// counter resumes past the highest replayed ID, and the returned list
// names the interrupted jobs so the caller can journal their terminal
// transition.
func (js *jobStore) restore(recs []journal.Record) (interrupted []string) {
	js.mu.Lock()
	defer js.mu.Unlock()
	// Two passes, so the result is insensitive to accepted/finished write
	// ordering (a fast job's finished append can overtake its accepted one;
	// the log stays a consistent set either way).
	finished := map[string]journal.Record{}
	for _, jr := range recs {
		switch jr.Op {
		case journal.OpAccepted:
			if _, dup := js.m[jr.ID]; dup {
				continue // defensive: accepted twice in a corrupt-ish log
			}
			rec := &jobRecord{
				ID: jr.ID, Workload: jr.Workload, Scale: jr.Scale,
				Client: jr.Client, IdemKey: jr.IdemKey,
				State: jobQueued, Submitted: jr.Time,
				doneCh: make(chan struct{}),
			}
			js.m[jr.ID] = rec
			js.order = append(js.order, jr.ID)
			if rec.IdemKey != "" {
				js.idem[idemIndexKey(rec.Client, rec.IdemKey)] = rec.ID
			}
			if n, err := strconv.ParseInt(strings.TrimPrefix(jr.ID, "j"), 10, 64); err == nil && n > js.nextid {
				js.nextid = n
			}
		case journal.OpStarted:
			// Written by earlier versions at the hand-over to the engine and
			// by nothing now. State-neutral: accepted-but-unfinished is
			// interrupted either way.
		case journal.OpCheckpoint:
			// The replayer already dropped everything the checkpoint
			// superseded; the marker itself carries no job state.
		case journal.OpFinished:
			finished[jr.ID] = jr // last terminal record wins
		}
	}
	for _, id := range js.order {
		rec := js.m[id]
		if rec == nil || rec.State != jobQueued {
			continue
		}
		if jr, ok := finished[id]; ok && (jr.State == jobDone || jr.State == jobFailed) {
			rec.State = jr.State
			rec.Error = jr.Error
			rec.Finished = jr.Time
			if len(jr.Result) > 0 {
				res := &pipeline.WireReport{}
				if err := json.Unmarshal(jr.Result, res); err == nil {
					rec.Result = res
				}
			}
			close(rec.doneCh)
			continue
		}
		rec.State = jobFailed
		rec.Error = errInterrupted
		rec.Finished = time.Now()
		close(rec.doneCh)
		interrupted = append(interrupted, id)
	}
	js.trimLocked()
	return interrupted
}

// exportRecords snapshots the live store as journal records — the
// compaction snapshot. Every record gets its accepted transition back
// (identity, idempotency key, submit time) and settled records their
// finished transition, so restore(snapshot) rebuilds exactly this store:
// the differential invariant restore(compacted) == restore(uncompacted).
// Results are emitted inline; the journal re-spills any that outgrow a
// record. Queued records export as accepted-only — if the node dies
// before they settle they replay as interrupted, exactly as they would
// have from the uncompacted log.
func (js *jobStore) exportRecords() []journal.Record {
	js.mu.Lock()
	defer js.mu.Unlock()
	out := make([]journal.Record, 0, 2*len(js.m))
	for _, id := range js.order {
		rec, ok := js.m[id]
		if !ok {
			continue
		}
		out = append(out, acceptedRecord(rec))
		if rec.State != jobQueued {
			out = append(out, finishedRecord(rec))
		}
	}
	return out
}

// snapshot copies a record under the lock into its JSON view.
func (js *jobStore) snapshot(rec *jobRecord) jobView {
	js.mu.Lock()
	defer js.mu.Unlock()
	v := jobView{
		ID: rec.ID, Workload: rec.Workload, Scale: rec.Scale,
		State: rec.State, Client: rec.Client, Submitted: rec.Submitted,
		Error: rec.Error, Result: rec.Result,
	}
	if !rec.Finished.IsZero() {
		f := rec.Finished
		v.Finished = &f
	}
	return v
}

// list returns views of every live record, oldest first.
func (js *jobStore) list() []jobView {
	js.mu.Lock()
	recs := make([]*jobRecord, 0, len(js.order))
	for _, id := range js.order {
		if rec, ok := js.m[id]; ok {
			recs = append(recs, rec)
		}
	}
	js.mu.Unlock()
	out := make([]jobView, len(recs))
	for i, rec := range recs {
		out[i] = js.snapshot(rec)
	}
	return out
}
