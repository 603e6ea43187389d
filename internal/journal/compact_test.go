package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// snapFor returns a snap() producing the given records.
func snapFor(recs ...Record) func() []Record {
	return func() []Record { return recs }
}

// TestCheckpointSupersedesReplay: a checkpoint record wipes everything
// before it, so replay of a compacted log yields the checkpoint plus the
// snapshot — never the superseded history.
func TestCheckpointSupersedesReplay(t *testing.T) {
	data := []byte(magic)
	pre := []Record{
		accepted("j000001", "CG"),
		finished("j000001", "done"),
		accepted("j000002", "EP"),
	}
	for _, r := range pre {
		data = append(data, frame(t, r)...)
	}
	data = append(data, frame(t, Record{Op: OpCheckpoint, Time: time.Unix(300, 0).UTC(), Live: 2})...)
	post := []Record{
		accepted("j000002", "EP"),
		accepted("j000003", "MG"),
	}
	for _, r := range post {
		data = append(data, frame(t, r)...)
	}

	recs, consumed, err := Replay(data)
	if err != nil || consumed != len(data) {
		t.Fatalf("replay: consumed %d/%d, err %v", consumed, len(data), err)
	}
	if len(recs) != 3 || recs[0].Op != OpCheckpoint || recs[0].Live != 2 {
		t.Fatalf("checkpoint did not supersede history: %+v", recs)
	}
	if recs[1].ID != "j000002" || recs[2].ID != "j000003" {
		t.Fatalf("post-checkpoint records wrong: %+v", recs[1:])
	}
}

// TestV1JournalReplays: a pre-compaction (DPJ1) log replays cleanly under
// the v2 code, and the journal keeps appending to it.
func TestV1JournalReplays(t *testing.T) {
	path := tmpJournal(t)
	data := []byte(magicV1)
	data = append(data, frame(t, accepted("j000001", "CG"))...)
	data = append(data, frame(t, finished("j000001", "done"))...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j, recs, err := OpenWith(path, Options{})
	if err != nil {
		t.Fatalf("Open v1 journal: %v", err)
	}
	if len(recs) != 2 || recs[0].Op != OpAccepted || recs[1].Op != OpFinished {
		t.Fatalf("v1 replay got %+v", recs)
	}
	if st := j.Stats(); st.Truncated != 0 || st.Replayed != 2 {
		t.Fatalf("v1 replay stats: %+v", st)
	}
	if err := j.Append(accepted("j000002", "EP")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs = mustOpen(t, path)
	if len(recs) != 3 {
		t.Fatalf("v1 journal after append replayed %d records, want 3", len(recs))
	}
}

// TestCompactRotates: after Compact the log holds exactly the checkpoint
// plus the snapshot, the file shrank, appends continue into the new
// generation, and a reopen replays O(live) records.
func TestCompactRotates(t *testing.T) {
	path := tmpJournal(t)
	j, _ := mustOpen(t, path)
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("j%06d", i+1)
		if err := j.Append(accepted(id, "CG")); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(finished(id, "done")); err != nil {
			t.Fatal(err)
		}
	}
	before := j.Stats()
	if before.LiveRecords != 400 {
		t.Fatalf("pre-compaction live records %d, want 400", before.LiveRecords)
	}

	// The live store retained only the last two jobs.
	snap := []Record{
		accepted("j000199", "CG"), finished("j000199", "done"),
		accepted("j000200", "CG"), finished("j000200", "done"),
	}
	if err := j.Compact(snapFor(snap...)); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := j.Stats()
	if after.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", after.Compactions)
	}
	if after.LiveRecords != 5 { // checkpoint + 4 snapshot records
		t.Fatalf("post-compaction live records %d, want 5", after.LiveRecords)
	}
	if after.SizeBytes >= before.SizeBytes {
		t.Fatalf("compaction did not shrink the log: %d -> %d bytes", before.SizeBytes, after.SizeBytes)
	}
	// Appends continue into the rotated log.
	if err := j.Append(accepted("j000201", "EP")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs := mustOpen(t, path)
	defer j2.Close()
	if len(recs) != 6 {
		t.Fatalf("compacted journal replayed %d records, want 6", len(recs))
	}
	if recs[0].Op != OpCheckpoint || recs[0].Live != 4 {
		t.Fatalf("first replayed record is not the checkpoint: %+v", recs[0])
	}
	if recs[5].ID != "j000201" || recs[5].Op != OpAccepted {
		t.Fatalf("post-compaction append lost: %+v", recs[5])
	}
	// On-disk file must be v2 and small.
	head := make([]byte, 4)
	f, _ := os.Open(path)
	io.ReadFull(f, head)
	f.Close()
	if string(head) != magic {
		t.Fatalf("rotated log magic %q, want %q", head, magic)
	}
}

// TestNeedsCompactionThrashGuard: a store that exceeds the byte threshold
// even when fully compacted must not re-trigger on every append — the log
// has to double past its post-compaction baseline first.
func TestNeedsCompactionThrashGuard(t *testing.T) {
	path := tmpJournal(t)
	j, _, err := OpenWith(path, Options{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	snap := []Record{accepted("j000001", "CG"), finished("j000001", "done")}
	for _, r := range snap {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if !j.NeedsCompaction() {
		t.Fatal("1-byte threshold did not trigger")
	}
	if err := j.Compact(snapFor(snap...)); err != nil {
		t.Fatal(err)
	}
	// Still over MaxBytes, but freshly compacted: no thrash.
	if j.NeedsCompaction() {
		t.Fatal("NeedsCompaction immediately after compaction")
	}
	// Doubling the log re-arms the trigger.
	base := j.Stats().SizeBytes
	for j.Stats().SizeBytes < 2*base {
		if err := j.Append(accepted("j000009", "EP")); err != nil {
			t.Fatal(err)
		}
	}
	if !j.NeedsCompaction() {
		t.Fatal("doubled log did not re-trigger compaction")
	}
}

// TestCompactCrashDrill: a crash injected between the checkpoint write
// and the rename leaves the OLD log authoritative; a crash after the
// rename leaves the NEW log. Either way the next Open recovers exactly
// one consistent store — no blend, no loss, and no stray temp file.
func TestCompactCrashDrill(t *testing.T) {
	old := []Record{
		accepted("j000001", "CG"), finished("j000001", "done"),
		accepted("j000002", "EP"),
	}
	snap := []Record{accepted("j000002", "EP")}

	build := func(t *testing.T) string {
		path := tmpJournal(t)
		j, _ := mustOpen(t, path)
		for _, r := range old {
			if err := j.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Note: build leaks the first Journal deliberately — the "process"
	// dies mid-compaction, so nothing closes cleanly.

	t.Run("before-rename", func(t *testing.T) {
		path := build(t)
		j, _ := mustOpen(t, path)
		testHookCompactCrash = func(stage string) bool { return stage == "written" }
		defer func() { testHookCompactCrash = nil }()
		if err := j.Compact(snapFor(snap...)); err != errCompactAborted {
			t.Fatalf("Compact = %v, want abort", err)
		}
		if _, err := os.Stat(compactTmpPath(path)); err != nil {
			t.Fatal("crash-before-rename should leave the staged temp file")
		}
		j2, recs, err := OpenWith(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer j2.Close()
		if len(recs) != len(old) {
			t.Fatalf("recovered %d records, want the old log's %d", len(recs), len(old))
		}
		for i := range old {
			if recs[i].ID != old[i].ID || recs[i].Op != old[i].Op {
				t.Fatalf("record %d: %+v, want %+v", i, recs[i], old[i])
			}
		}
		if _, err := os.Stat(compactTmpPath(path)); !os.IsNotExist(err) {
			t.Fatal("Open did not clear the stray compaction temp")
		}
	})

	t.Run("after-rename", func(t *testing.T) {
		path := build(t)
		j, _ := mustOpen(t, path)
		testHookCompactCrash = func(stage string) bool { return stage == "renamed" }
		defer func() { testHookCompactCrash = nil }()
		if err := j.Compact(snapFor(snap...)); err != errCompactAborted {
			t.Fatalf("Compact = %v, want abort", err)
		}
		j2, recs, err := OpenWith(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer j2.Close()
		if len(recs) != 2 || recs[0].Op != OpCheckpoint || recs[1].ID != "j000002" {
			t.Fatalf("recovered %+v, want checkpoint + snapshot", recs)
		}
	})
}

// TestCompactionDifferential: restoring from a compacted log and from the
// uncompacted log it replaced yields the same record set (the journal's
// half of the restore(compacted) == restore(uncompacted) invariant; the
// server test covers the store half).
func TestCompactionDifferential(t *testing.T) {
	path := tmpJournal(t)
	j, _ := mustOpen(t, path)
	// Live store: one done (with result), one failed, one still queued.
	live := []Record{
		accepted("j000001", "CG"), finished("j000001", "done"),
		accepted("j000002", "EP"),
		{Op: OpFinished, ID: "j000002", Time: time.Unix(201, 0).UTC(), State: "failed", Error: "boom"},
		accepted("j000003", "MG"),
	}
	for _, r := range live {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	uncompacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(snapFor(live...)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	fromOld, _, _ := Replay(uncompacted)
	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fromNew, consumed, rerr := Replay(compacted)
	if rerr != nil || consumed != len(compacted) {
		t.Fatalf("compacted log replay: %v (consumed %d/%d)", rerr, consumed, len(compacted))
	}
	// Strip the checkpoint marker; the job records must match 1:1.
	var jobRecs []Record
	for _, r := range fromNew {
		if r.Op != OpCheckpoint {
			jobRecs = append(jobRecs, r)
		}
	}
	if len(jobRecs) != len(fromOld) {
		t.Fatalf("compacted replay has %d job records, uncompacted %d", len(jobRecs), len(fromOld))
	}
	for i := range fromOld {
		a, _ := json.Marshal(fromOld[i])
		b, _ := json.Marshal(jobRecs[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("record %d differs:\nuncompacted %s\ncompacted   %s", i, a, b)
		}
	}
}

// bigResult builds a JSON result payload of roughly n bytes.
func bigResult(n int) json.RawMessage {
	return json.RawMessage(`{"notes":"` + strings.Repeat("x", n) + `"}`)
}

// TestOversizedResultSpills: a finished record whose result exceeds the
// record cap is journaled as a hash + spill file, replays with the ref,
// and the spilled bytes read back verified.
func TestOversizedResultSpills(t *testing.T) {
	path := tmpJournal(t)
	j, _ := mustOpen(t, path)
	big := bigResult(2 << 20) // 2MiB, double the record cap
	rec := Record{Op: OpFinished, ID: "j000001", Time: time.Unix(200, 0).UTC(),
		State: "done", Result: big}
	if err := j.Append(rec); err != nil {
		t.Fatalf("oversized append should spill, got %v", err)
	}
	st := j.Stats()
	if st.SpillFiles != 1 || st.SpillBytes != int64(len(big)) {
		t.Fatalf("spill counters %+v, want 1 file of %d bytes", st, len(big))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs := mustOpen(t, path)
	defer j2.Close()
	if len(recs) != 1 || recs[0].ResultRef == "" || len(recs[0].Result) != 0 {
		t.Fatalf("spilled record replayed as %+v", recs[0])
	}
	got, err := j2.ReadSpill(recs[0].ResultRef)
	if err != nil {
		t.Fatalf("ReadSpill: %v", err)
	}
	if !bytes.Equal(got, big) {
		t.Fatalf("spill round-trip lost data: %d bytes, want %d", len(got), len(big))
	}
	if st := j2.Stats(); st.SpillFiles != 1 {
		t.Fatalf("reopen did not rescan spill dir: %+v", st)
	}

	// A corrupted spill file must fail its content hash, and refs that
	// are not hex hashes must never touch the filesystem.
	spillPath := filepath.Join(j2.SpillDir(), recs[0].ResultRef)
	if err := os.WriteFile(spillPath, []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := j2.ReadSpill(recs[0].ResultRef); err == nil {
		t.Fatal("tampered spill passed its hash check")
	}
	for _, ref := range []string{"../escape", "..", "abc", strings.Repeat("Z", 64)} {
		if _, err := j2.ReadSpill(ref); err == nil {
			t.Fatalf("invalid ref %q accepted", ref)
		}
	}
}

// TestCompactionGCsSpills: compaction deletes spill files the snapshot no
// longer references and keeps the ones it does.
func TestCompactionGCsSpills(t *testing.T) {
	path := tmpJournal(t)
	j, _ := mustOpen(t, path)
	keepRes := bigResult(1 << 21)
	dropRes := bigResult(3 << 20)
	liveRec := Record{Op: OpFinished, ID: "j000001", Time: time.Unix(200, 0).UTC(), State: "done", Result: keepRes}
	deadRec := Record{Op: OpFinished, ID: "j000002", Time: time.Unix(201, 0).UTC(), State: "done", Result: dropRes}
	if err := j.Append(liveRec); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(deadRec); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.SpillFiles != 2 {
		t.Fatalf("want 2 spill files, got %+v", st)
	}
	// Snapshot keeps only job 1 (job 2 was evicted from the store).
	if err := j.Compact(snapFor(
		accepted("j000001", "CG"), liveRec,
	)); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.SpillFiles != 1 || st.SpillBytes != int64(len(keepRes)) {
		t.Fatalf("GC left %+v, want exactly the referenced spill", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// The surviving spill still resolves after reopen.
	j2, recs := mustOpen(t, path)
	defer j2.Close()
	var ref string
	for _, r := range recs {
		if r.ResultRef != "" {
			ref = r.ResultRef
		}
	}
	if ref == "" {
		t.Fatalf("no spill ref in compacted replay: %+v", recs)
	}
	if got, err := j2.ReadSpill(ref); err != nil || !bytes.Equal(got, keepRes) {
		t.Fatalf("kept spill unreadable after compaction: %v", err)
	}
}

// TestCloseFlusherRace: Append and Sync racing Close must never write
// through a closed descriptor (flushLocked is a no-op once closed) and
// must never deadlock. Run under -race.
func TestCloseFlusherRace(t *testing.T) {
	for i := 0; i < 20; i++ {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("j%d.bin", i))
		j, _ := mustOpen(t, path)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; ; k++ {
					select {
					case <-stop:
						return
					default:
					}
					j.Append(accepted(fmt.Sprintf("j%02d%04d", g, k), "CG"))
					if k%7 == 0 {
						j.Sync()
					}
				}
			}(g)
		}
		time.Sleep(time.Millisecond)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()
		// Post-close appends fail cleanly; the file replays consistently.
		if err := j.Append(accepted("j999999", "CG")); err == nil {
			t.Fatal("append after close succeeded")
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, consumed, rerr := Replay(data); rerr != nil || consumed != len(data) {
			t.Fatalf("post-race journal inconsistent: %v (consumed %d/%d)", rerr, consumed, len(data))
		}
	}
}

// BenchmarkBootReplay measures what compaction buys at boot: Open over a
// long-history log versus the same store after one Compact. The history
// holds 25k settled jobs (50k records); the live store retains the last
// 512 of them — the before/after numbers in docs/runs/PR10.md come from here.
func BenchmarkBootReplay(b *testing.B) {
	const jobs, live = 25000, 512
	res := json.RawMessage(`{"instrs":4849665,"deps":11,"cus":4,"elapsed_ms":55.3,"suggestions":[{"rank":1,"kind":"DOALL","loc":"3:7","coverage":0.92,"speedup":14.1,"imbalance":0.02,"score":11.8}]}`)
	build := func(b *testing.B, compact bool) string {
		path := filepath.Join(b.TempDir(), "jobs.journal")
		j, _, err := OpenWith(path, Options{})
		if err != nil {
			b.Fatal(err)
		}
		var snap []Record
		for i := 0; i < jobs; i++ {
			id := fmt.Sprintf("j%06d", i+1)
			acc := Record{Op: OpAccepted, ID: id, Time: time.Unix(int64(i), 0).UTC(), Workload: "histogram", Client: "bench"}
			fin := Record{Op: OpFinished, ID: id, Time: time.Unix(int64(i), 1).UTC(), State: "done", Result: res}
			if err := j.Append(acc); err != nil {
				b.Fatal(err)
			}
			if err := j.Append(fin); err != nil {
				b.Fatal(err)
			}
			if i >= jobs-live {
				snap = append(snap, acc, fin)
			}
		}
		if compact {
			if err := j.Compact(func() []Record { return snap }); err != nil {
				b.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
		return path
	}
	for _, bc := range []struct {
		name    string
		compact bool
	}{{"uncompacted-50k-records", false}, {"compacted-512-live", true}} {
		b.Run(bc.name, func(b *testing.B) {
			path := build(b, bc.compact)
			if fi, err := os.Stat(path); err == nil {
				b.ReportMetric(float64(fi.Size()), "file-bytes")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j, recs, err := OpenWith(path, Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(recs)), "records")
				j.Close()
			}
		})
	}
}

// repeatReader yields prefix then frame repeated count times, without
// materializing the stream.
type repeatReader struct {
	prefix []byte
	frame  []byte
	count  int // frames remaining (including the partially-read one)
	off    int // offset into the current chunk
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if len(r.prefix) > 0 {
		n := copy(p, r.prefix)
		r.prefix = r.prefix[n:]
		return n, nil
	}
	if r.count == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.frame[r.off:])
	r.off += n
	if r.off == len(r.frame) {
		r.off = 0
		r.count--
	}
	return n, nil
}

// TestReplayStreamsPast2GiB is the regression for the v1 Open bug: replay
// went through io.LimitReader(f, 1<<31), so a journal past 2 GiB had its
// valid tail silently dropped — and then destructively truncated on disk.
// The streaming replayer must consume a synthetic >2 GiB record stream
// completely. (~2 GiB flows through CRC + JSON decoding; skipped in
// -short runs.)
func TestReplayStreamsPast2GiB(t *testing.T) {
	if testing.Short() {
		t.Skip("2 GiB stream replay is a full-mode regression test")
	}
	one := frame(t, Record{Op: OpFinished, ID: "j000001", Time: time.Unix(200, 0).UTC(),
		State: "done", Result: bigResult(MaxRecordBytes - 1024)})
	count := int(int64(1)<<31/int64(len(one))) + 2 // just past the old 2 GiB ceiling
	r := &repeatReader{prefix: []byte(magic), frame: one, count: count}

	recs, consumed, err := replayStream(bufio.NewReaderSize(r, 1<<20))
	if err != nil {
		t.Fatalf("streaming replay errored at offset %d: %v", consumed, err)
	}
	if consumed <= 1<<31 {
		t.Fatalf("stream consumed only %d bytes, never crossed the 2 GiB boundary", consumed)
	}
	if len(recs) != count {
		t.Fatalf("replayed %d records, want %d — the tail was dropped", len(recs), count)
	}
}
