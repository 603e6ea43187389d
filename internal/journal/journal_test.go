package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "journal.bin")
}

func mustOpen(t *testing.T, path string) (*Journal, []Record) {
	t.Helper()
	j, recs, err := OpenWith(path, Options{})
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return j, recs
}

func accepted(id, workload string) Record {
	return Record{Op: OpAccepted, ID: id, Time: time.Unix(100, 0).UTC(),
		Workload: workload, Client: "alice", IdemKey: "k-" + id}
}

func finished(id, state string) Record {
	return Record{Op: OpFinished, ID: id, Time: time.Unix(200, 0).UTC(),
		State: state, Result: json.RawMessage(`{"instrs":42}`)}
}

// TestRoundTrip: appends survive close and replay in order with every
// field intact.
func TestRoundTrip(t *testing.T) {
	path := tmpJournal(t)
	j, recs := mustOpen(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := []Record{
		accepted("j000001", "CG"),
		{Op: OpStarted, ID: "j000001", Time: time.Unix(150, 0).UTC()},
		finished("j000001", "done"),
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, got := mustOpen(t, path)
	defer j2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		w, _ := json.Marshal(want[i])
		g, _ := json.Marshal(got[i])
		if !bytes.Equal(w, g) {
			t.Errorf("record %d: got %s, want %s", i, g, w)
		}
	}
	if st := j2.Stats(); st.Replayed != int64(len(want)) || st.Truncated != 0 {
		t.Errorf("stats after clean replay: %+v", st)
	}
}

// TestAppendAfterReplay: a reopened journal appends past the replayed
// records, and a third open sees both generations.
func TestAppendAfterReplay(t *testing.T) {
	path := tmpJournal(t)
	j, _ := mustOpen(t, path)
	if err := j.Append(accepted("j000001", "CG")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, recs := mustOpen(t, path)
	if len(recs) != 1 {
		t.Fatalf("replayed %d, want 1", len(recs))
	}
	if err := j2.Append(finished("j000001", "done")); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3, recs := mustOpen(t, path)
	defer j3.Close()
	if len(recs) != 2 || recs[0].Op != OpAccepted || recs[1].Op != OpFinished {
		t.Fatalf("second reopen replayed %+v", recs)
	}
}

// TestTornTailTruncated: a crash mid-write leaves a partial record; Open
// must recover the intact prefix and truncate the tail so the next append
// lands on a record boundary.
func TestTornTailTruncated(t *testing.T) {
	path := tmpJournal(t)
	j, _ := mustOpen(t, path)
	j.Append(accepted("j000001", "CG"))
	j.Append(finished("j000001", "done"))
	j.Close()

	// Simulate the torn write: chop the file mid-record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, recs := mustOpen(t, path)
	if len(recs) != 1 || recs[0].Op != OpAccepted {
		t.Fatalf("torn-tail replay got %+v, want the intact first record", recs)
	}
	if st := j2.Stats(); st.Truncated == 0 {
		t.Error("truncation not reported in stats")
	}
	// The journal must now be appendable and self-consistent.
	if err := j2.Append(finished("j000001", "failed")); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, recs = mustOpen(t, path)
	if len(recs) != 2 || recs[1].State != "failed" {
		t.Fatalf("post-truncation journal replayed %+v", recs)
	}
}

// TestBitFlipStopsReplay: a corrupted byte inside a committed record
// fails its checksum; replay keeps everything before it and stops.
func TestBitFlipStopsReplay(t *testing.T) {
	path := tmpJournal(t)
	j, _ := mustOpen(t, path)
	j.Append(accepted("j000001", "CG"))
	j.Append(accepted("j000002", "EP"))
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit deep in the second record's payload.
	data[len(data)-3] ^= 0x40
	recs, consumed, rerr := Replay(data)
	if len(recs) != 1 || recs[0].ID != "j000001" {
		t.Fatalf("bit-flip replay got %d records, want the first only", len(recs))
	}
	if rerr == nil {
		t.Error("corrupt record did not produce a diagnostic error")
	}
	if consumed >= len(data) {
		t.Error("replay claimed to consume the corrupt tail")
	}
}

// TestGarbageInputs: arbitrary non-journal bytes must be rejected or
// yield zero records — never a panic (the fuzz target widens this).
func TestGarbageInputs(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		[]byte("D"),
		[]byte("not a journal at all"),
		[]byte(magic),
		append([]byte(magic), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0),
		append([]byte(magic), 1, 2, 3),
	} {
		recs, consumed, _ := Replay(data)
		if len(recs) != 0 {
			t.Errorf("garbage %q produced %d records", data, len(recs))
		}
		if consumed > len(data) {
			t.Errorf("garbage %q: consumed %d > len %d", data, consumed, len(data))
		}
	}
	// A huge claimed length must not allocate: record claims 2GB.
	frame := append([]byte(magic), 0, 0, 0, 0x80, 0, 0, 0, 0)
	if recs, _, err := Replay(frame); len(recs) != 0 || err == nil {
		t.Error("implausible length accepted")
	}
}

// TestOpenRefusesForeignFile: Open must not truncate a file that is not a
// journal.
func TestOpenRefusesForeignFile(t *testing.T) {
	path := tmpJournal(t)
	content := []byte("precious data that is definitely not a journal")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWith(path, Options{}); err == nil {
		t.Fatal("Open accepted a foreign file")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, content) {
		t.Fatal("Open modified a foreign file")
	}
}

// TestSyncDurability: records appended and Synced are on disk even
// without Close (read the file directly, as a crash would find it).
func TestSyncDurability(t *testing.T) {
	path := tmpJournal(t)
	j, _ := mustOpen(t, path)
	defer j.Close()
	j.Append(accepted("j000001", "CG"))
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _ := Replay(data)
	if len(recs) != 1 {
		t.Fatalf("synced record not on disk (replayed %d)", len(recs))
	}
}

// TestConcurrentAppends: many goroutines appending must all land intact
// (run under -race).
func TestConcurrentAppends(t *testing.T) {
	path := tmpJournal(t)
	j, _ := mustOpen(t, path)
	const goroutines, perG = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := fmt.Sprintf("j%02d%04d", g, i)
				if err := j.Append(accepted(id, "CG")); err != nil {
					t.Errorf("append %s: %v", id, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := mustOpen(t, path)
	if len(recs) != goroutines*perG {
		t.Fatalf("replayed %d records, want %d", len(recs), goroutines*perG)
	}
	if st := j.Stats(); st.Appends != goroutines*perG {
		t.Errorf("append counter %d, want %d", st.Appends, goroutines*perG)
	}
}

// TestUnknownOpStopsReplay: a structurally valid frame with an op the
// replayer does not know stops the replay (fail-closed on future format
// drift rather than inventing job states).
func TestUnknownOpStopsReplay(t *testing.T) {
	payload, _ := json.Marshal(map[string]string{"op": "compacted", "id": "j000001"})
	data := []byte(magic)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	data = append(data, hdr[:]...)
	data = append(data, payload...)
	recs, _, err := Replay(data)
	if len(recs) != 0 || err == nil {
		t.Fatalf("unknown op replayed as %+v (err %v)", recs, err)
	}
}
