// Package journal is the crash-safe job journal behind dp-serve's durable
// job records. Every job transition — accepted, finished — is
// appended as one length-prefixed, checksummed record; on boot the service
// replays the journal to restore its record store, so a restart answers
// long-polls for pre-restart jobs instead of forgetting them, and jobs
// that were in flight at crash time surface as failed (interrupted)
// rather than vanishing.
//
// On-disk format (version 2; version 1 files replay unchanged):
//
//	"DPJ2"                          4-byte file magic ("DPJ1" accepted on read)
//	repeated records:
//	  uint32 LE payload length      capped at MaxRecordBytes
//	  uint32 LE CRC32 (IEEE)        over the payload bytes
//	  payload                       one JSON-encoded Record
//
// Version 2 adds two durability mechanisms on top of the v1 framing:
//
//   - Checkpoint records (OpCheckpoint). Compact serializes the caller's
//     live state as one checkpoint marker followed by the snapshot
//     records into a fresh log, fsyncs it, and atomically renames it over
//     the old one — boot replay is O(live records), not O(history). On
//     replay a checkpoint record supersedes everything before it, so the
//     semantics hold even for logs a future writer checkpoints mid-file.
//
//   - Result spill (Record.ResultRef). A record whose Result pushes the
//     payload past MaxRecordBytes is not rejected: the result bytes move
//     to a content-addressed file under <journal>.spill/<sha256> and the
//     record journals the hash instead. Spill files unreferenced by the
//     live snapshot are garbage-collected at compaction.
//
// The format is designed around crash behavior, not elegance: a torn
// write at crash time leaves a short or corrupt tail, so Replay stops at
// the first record that fails its frame, checksum, or decode — everything
// before it is a consistent prefix — and OpenWith truncates the torn tail so
// the next append continues from a clean boundary. OpenWith streams the file
// instead of slurping it through a bounded reader, so a log past 2 GiB
// replays its full valid tail rather than silently truncating it. Replay
// never panics on arbitrary bytes (FuzzJournalReplay holds it to that).
//
// Durability is batched: Append buffers the record and a background
// flusher coalesces writes into one Flush+fsync within a few
// milliseconds, so a burst of accepted jobs costs one disk sync instead
// of one each. The trade is explicit: a crash can lose the last few
// milliseconds of appends, but never corrupts what came before.
package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Record ops: the job transitions the server journals, plus the compaction
// marker.
const (
	// OpAccepted is written once a submission is acknowledged with 202:
	// the job exists and a result is owed.
	OpAccepted = "accepted"
	// OpStarted marked the hand-over from the server's queue to the engine's
	// while there were two queues. Nothing writes it any more; replay still
	// accepts it, because logs written before then contain it.
	OpStarted = "started"
	// OpFinished is written when the result (or failure) is recorded.
	OpFinished = "finished"
	// OpCheckpoint marks a compaction point: everything before it in the
	// log is superseded by the snapshot records that follow it. Compact
	// writes it as the first record of every rotated log.
	OpCheckpoint = "checkpoint"
)

// Record is one journaled job transition. Which fields are meaningful
// depends on Op: accepted records carry the job's identity (workload,
// client, idempotency key), finished records carry the terminal state and
// the result summary; started records (earlier versions) are just the op,
// id, and time; checkpoint records carry the snapshot size in Live.
type Record struct {
	Op   string    `json:"op"`
	ID   string    `json:"id"`
	Time time.Time `json:"time"`

	// Accepted-record fields.
	Workload string `json:"workload,omitempty"`
	Scale    int    `json:"scale,omitempty"`
	Client   string `json:"client,omitempty"`
	IdemKey  string `json:"idem_key,omitempty"`

	// Finished-record fields. Result is the server's job-result summary,
	// kept opaque here so the journal does not depend on the server's
	// JSON shapes. A result too large for one record is spilled to
	// <journal>.spill/<ResultRef> and Result is left empty; ReadSpill
	// loads it back.
	State     string          `json:"state,omitempty"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	ResultRef string          `json:"result_ref,omitempty"`

	// Checkpoint-record fields: how many snapshot records follow.
	Live int `json:"live,omitempty"`
}

// MaxRecordBytes caps one record's payload. Finished records whose result
// would push them past the cap spill the result to a side file instead;
// the cap also ensures a corrupt length prefix cannot make replay
// allocate gigabytes.
const MaxRecordBytes = 1 << 20

// Journal file magics: v2 is written, both replay. The only format change
// is additive (checkpoint records, spill refs), so v1 logs replay under
// the v2 rules unchanged.
const (
	magic   = "DPJ2"
	magicV1 = "DPJ1"
)

// frame header: uint32 length + uint32 crc.
const frameHeader = 8

// ErrNotJournal reports a non-empty file whose first bytes are not the
// journal magic: almost certainly not ours, so OpenWith refuses to append to
// (and truncate) it.
var ErrNotJournal = errors.New("journal: bad file magic")

// Replay decodes every complete, checksummed record from data (a whole
// journal file, magic included). It stops cleanly at the first torn or
// corrupt record — the expected shape of a crash tail — returning the
// records before it and the byte offset replay stopped at. A checkpoint
// record supersedes everything before it: the returned slice restarts at
// the checkpoint. The returned error is nil only when the whole file was
// consumed; it is diagnostic (the consistent prefix is still usable),
// except for ErrNotJournal, which means no prefix exists at all. Replay
// never panics on arbitrary input.
func Replay(data []byte) (recs []Record, consumed int, err error) {
	if len(data) == 0 {
		return nil, 0, nil
	}
	recs, n, err := replayStream(bytes.NewReader(data))
	return recs, int(n), err
}

// replayStream is Replay over a reader: OpenWith uses it directly against the
// file so replay cost is O(records) in memory, never a whole-file slurp —
// a journal past 2 GiB replays completely (the v1 implementation read
// through io.LimitReader(1<<31) and silently dropped the valid tail, then
// destroyed it with the torn-tail truncation).
func replayStream(r io.Reader) (recs []Record, consumed int64, err error) {
	var mbuf [len(magic)]byte
	if _, err := io.ReadFull(r, mbuf[:]); err != nil {
		if err == io.EOF {
			return nil, 0, nil // empty file
		}
		return nil, 0, ErrNotJournal
	}
	if m := string(mbuf[:]); m != magic && m != magicV1 {
		return nil, 0, ErrNotJournal
	}
	consumed = int64(len(magic))
	var hdr [frameHeader]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return recs, consumed, nil
			}
			return recs, consumed, fmt.Errorf("journal: torn frame header at offset %d", consumed)
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		sum := binary.LittleEndian.Uint32(hdr[4:])
		if n == 0 || n > MaxRecordBytes {
			return recs, consumed, fmt.Errorf("journal: implausible record length %d at offset %d", n, consumed)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return recs, consumed, fmt.Errorf("journal: torn record at offset %d (want %d payload bytes)", consumed, n)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, consumed, fmt.Errorf("journal: checksum mismatch at offset %d", consumed)
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, consumed, fmt.Errorf("journal: undecodable record at offset %d: %v", consumed, err)
		}
		switch rec.Op {
		case OpAccepted, OpStarted, OpFinished:
		case OpCheckpoint:
			// Everything before the checkpoint is superseded by the
			// snapshot that follows it.
			recs = recs[:0]
		default:
			return recs, consumed, fmt.Errorf("journal: unknown op %q at offset %d", rec.Op, consumed)
		}
		recs = append(recs, rec)
		consumed += frameHeader + int64(n)
	}
}

// Stats is a snapshot of a journal's counters.
type Stats struct {
	// Appends is how many records have been appended this process.
	Appends int64
	// Bytes is the framed bytes appended this process.
	Bytes int64
	// Syncs is how many batched fsyncs the flusher has issued.
	Syncs int64
	// Replayed is how many records OpenWith recovered from the file at boot.
	Replayed int64
	// Truncated is non-zero when OpenWith dropped a torn or corrupt tail.
	Truncated int64
	// Compactions is how many snapshot+truncate rotations ran this
	// process.
	Compactions int64
	// LiveRecords is how many records the current log generation holds —
	// replayed plus appended, reset to the snapshot size by compaction.
	// This is what bounds the next boot's replay.
	LiveRecords int64
	// SizeBytes is the current log file size including buffered appends.
	SizeBytes int64
	// SpillFiles and SpillBytes count the live spill files holding
	// results too large for one record.
	SpillFiles int64
	// SpillBytes is the summed size of the live spill files.
	SpillBytes int64
}

// Options tunes a journal opened with OpenWith. The zero value never
// triggers compaction on its own (Compact can still be called directly).
type Options struct {
	// MaxBytes makes NeedsCompaction report true once the log grows past
	// this size (0 = no byte trigger).
	MaxBytes int64
	// MaxRecords makes NeedsCompaction report true once the log holds
	// more than this many records (0 = no record trigger).
	MaxRecords int64
}

// Journal is an open journal file accepting appends. Safe for concurrent
// use.
type Journal struct {
	path string
	opts Options

	mu     sync.Mutex
	f      *os.File
	buf    []byte // pending framed bytes not yet written through
	err    error  // sticky I/O error; surfaced by every later Append
	closed bool
	dirty  bool

	// size and records track the current log generation (file bytes and
	// record count including buffered appends); lastCompact* remember the
	// generation's post-compaction baseline so a store that is itself
	// over the limit cannot trigger a rotation per append.
	size            int64
	records         int64
	lastCompactSize int64
	lastCompactRecs int64

	// spillFiles/spillBytes mirror the live contents of SpillDir.
	spillFiles int64
	spillBytes int64

	kick chan struct{} // wakes the flusher; buffered, never blocks Append
	done chan struct{} // closed when the flusher exits

	appends     atomic.Int64
	bytes       atomic.Int64
	syncs       atomic.Int64
	compactions atomic.Int64
	replayed    int64
	truncated   int64
}

// OpenWith opens (creating if absent) the journal at path, streams a
// replay of every intact record, truncates any torn tail so appends
// continue from a clean boundary, and returns the journal ready for
// Append alongside the replayed records. A stray .compact temp file from
// a crash mid-compaction is removed (the rename never happened, so the
// log itself is the consistent state). A non-empty file without the
// journal magic returns ErrNotJournal rather than destroying whatever
// the file is.
func OpenWith(path string, opts Options) (*Journal, []Record, error) {
	// A crash between writing the compaction temp file and renaming it
	// leaves the old log authoritative; the temp is garbage either way.
	os.Remove(compactTmpPath(path))

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	j := &Journal{
		path: path,
		opts: opts,
		f:    f,
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	var recs []Record
	if fi.Size() == 0 {
		if _, err := f.Write([]byte(magic)); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
		j.size = int64(len(magic))
	} else {
		var consumed int64
		var rerr error
		recs, consumed, rerr = replayStream(bufio.NewReaderSize(f, 1<<20))
		if errors.Is(rerr, ErrNotJournal) {
			f.Close()
			return nil, nil, fmt.Errorf("%w: %s", ErrNotJournal, path)
		}
		if consumed < fi.Size() {
			// Torn or corrupt tail: drop it so the next append starts at a
			// record boundary instead of extending garbage.
			if err := f.Truncate(consumed); err != nil {
				f.Close()
				return nil, nil, err
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, nil, err
			}
			j.truncated = fi.Size() - consumed
		}
		if _, err := f.Seek(consumed, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, err
		}
		j.size = consumed
		j.records = int64(len(recs))
		j.replayed = int64(len(recs))
	}
	j.scanSpillDir()
	go j.flusher()
	return j, recs, nil
}

// frameLocked marshals rec into one framed record, spilling an oversized
// Result to a content-addressed spill file (the record then carries the
// hash in ResultRef). Callers hold j.mu.
func (j *Journal) frameLocked(rec Record) (frame []byte, ref string, err error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, "", err
	}
	if len(payload) > MaxRecordBytes && len(rec.Result) > 0 && rec.ResultRef == "" {
		ref, err := j.writeSpillLocked(rec.Result)
		if err != nil {
			return nil, "", fmt.Errorf("journal: spill oversized result: %w", err)
		}
		rec.Result, rec.ResultRef = nil, ref
		if payload, err = json.Marshal(rec); err != nil {
			return nil, "", err
		}
	}
	if len(payload) > MaxRecordBytes {
		return nil, "", fmt.Errorf("journal: record of %d bytes exceeds cap %d", len(payload), MaxRecordBytes)
	}
	frame = make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)
	return frame, rec.ResultRef, nil
}

// Append journals one record. The write is buffered and synced by the
// background flusher within a few milliseconds; callers needing a hard
// durability point call Sync. A result too large for one record is
// spilled to a side file automatically. A sticky I/O error from an
// earlier append or sync is returned so the caller can surface the
// journal as degraded.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: append on closed journal")
	}
	if j.err != nil {
		return j.err
	}
	frame, _, err := j.frameLocked(rec)
	if err != nil {
		return err
	}
	j.buf = append(j.buf, frame...)
	j.dirty = true
	j.size += int64(len(frame))
	j.records++
	j.appends.Add(1)
	j.bytes.Add(int64(len(frame)))
	select {
	case j.kick <- struct{}{}:
	default:
	}
	return nil
}

// NeedsCompaction reports whether the log has outgrown its configured
// thresholds. To prevent thrash when the live snapshot itself exceeds a
// threshold, the log must also have doubled since the last compaction
// before another one is suggested.
func (j *Journal) NeedsCompaction() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed || j.err != nil {
		return false
	}
	if j.opts.MaxBytes > 0 && j.size > j.opts.MaxBytes && j.size >= 2*j.lastCompactSize {
		return true
	}
	if j.opts.MaxRecords > 0 && j.records > j.opts.MaxRecords && j.records >= 2*j.lastCompactRecs {
		return true
	}
	return false
}

// flusher coalesces appends: each kick waits a beat so a burst of appends
// lands in one write+fsync, then flushes.
func (j *Journal) flusher() {
	defer close(j.done)
	for range j.kick {
		time.Sleep(2 * time.Millisecond)
		j.mu.Lock()
		if j.dirty {
			j.flushLocked()
		}
		closed := j.closed
		j.mu.Unlock()
		if closed {
			return
		}
	}
}

// flushLocked writes the pending buffer through and fsyncs. Callers hold
// j.mu. After Close has released the file it is a no-op: a flusher that
// consumed its kick just before Close (and was mid-sleep when the file
// closed) must not write through a dead descriptor, whatever state a
// future code path leaves dirty.
func (j *Journal) flushLocked() {
	if j.closed {
		return
	}
	if len(j.buf) > 0 {
		if _, err := j.f.Write(j.buf); err != nil && j.err == nil {
			j.err = err
		}
		j.buf = j.buf[:0]
	}
	if err := j.f.Sync(); err != nil && j.err == nil {
		j.err = err
	}
	j.dirty = false
	j.syncs.Add(1)
}

// Sync forces every buffered record to disk before returning — the hard
// durability point batching otherwise defers.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return j.err
	}
	if j.dirty {
		j.flushLocked()
	}
	return j.err
}

// Close flushes, fsyncs, and closes the file. Idempotent; appends after
// Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		<-j.done
		return j.err
	}
	if j.dirty {
		j.flushLocked()
	}
	// The closed flag must be set only after the final flush (flushLocked
	// refuses to touch a closed journal) and before the descriptor dies.
	j.closed = true
	if err := j.f.Close(); err != nil && j.err == nil {
		j.err = err
	}
	err := j.err
	j.mu.Unlock()
	// Unblock the flusher (it exits on the closed flag) and wait it out.
	select {
	case j.kick <- struct{}{}:
	default:
	}
	close(j.kick)
	<-j.done
	return err
}

// Err returns the journal's sticky I/O error, if any — non-nil means
// durability is degraded (appends are failing) even though the service
// keeps running.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Stats snapshots the journal's counters for /metrics.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	size, records := j.size, j.records
	spillFiles, spillBytes := j.spillFiles, j.spillBytes
	j.mu.Unlock()
	return Stats{
		Appends:     j.appends.Load(),
		Bytes:       j.bytes.Load(),
		Syncs:       j.syncs.Load(),
		Replayed:    j.replayed,
		Truncated:   j.truncated,
		Compactions: j.compactions.Load(),
		LiveRecords: records,
		SizeBytes:   size,
		SpillFiles:  spillFiles,
		SpillBytes:  spillBytes,
	}
}
