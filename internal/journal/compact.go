package journal

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Snapshot + truncate compaction. The caller owns the live state (the
// server's bounded record store); the journal owns the rotation protocol:
//
//  1. snap() is called under the journal lock, so the snapshot and the
//     append stream cannot interleave — every record appended before
//     Compact acquired the lock is superseded by the snapshot, and every
//     append that arrives while compaction runs lands in the new log.
//  2. A fresh log is written to <path>.compact: v2 magic, one checkpoint
//     marker, then the snapshot records (results too large for a record
//     spill exactly as live appends do).
//  3. The temp file is fsynced, atomically renamed over the old log, and
//     the directory is fsynced, so a crash leaves exactly one of the two
//     logs — never a blend. OpenWith removes a stray temp from a crash
//     between steps 2 and 3.
//  4. Spill files not referenced by the snapshot are garbage-collected.
//
// Boot replay after a compaction is O(live records): the checkpoint
// supersedes the history that used to be replayed on every start.

// compactTmpPath is where the replacement log is staged before the
// atomic rename.
func compactTmpPath(path string) string { return path + ".compact" }

// testHookCompactCrash, when non-nil, simulates a crash at the named
// stage ("written" = temp staged and synced, rename not issued;
// "renamed" = rename done, in-memory swap not done). Returning true
// aborts Compact there, leaving the on-disk state exactly as a power
// loss at that instant would.
var testHookCompactCrash func(stage string) bool

// errCompactAborted is returned by Compact when the crash hook fired.
var errCompactAborted = errors.New("journal: compaction aborted by test hook")

// Compact rotates the log: snap's records become the entire journal
// content, preceded by a checkpoint marker. Pending buffered appends are
// discarded — the snapshot is taken after them, so it supersedes them.
// On any error before the rename the old log remains authoritative and
// the journal keeps appending to it.
func (j *Journal) Compact(snap func() []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: compact on closed journal")
	}
	if j.err != nil {
		return j.err
	}
	recs := snap()

	tmp := compactTmpPath(j.path)
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: stage compaction: %w", err)
	}
	abort := func(err error) error {
		nf.Close()
		os.Remove(tmp)
		return err
	}

	w := bufio.NewWriterSize(nf, 1<<20)
	if _, err := w.WriteString(magic); err != nil {
		return abort(err)
	}
	size := int64(len(magic))
	keep := map[string]bool{}
	marker := Record{Op: OpCheckpoint, Time: time.Now().UTC(), Live: len(recs)}
	frame, _, err := j.frameLocked(marker)
	if err != nil {
		return abort(err)
	}
	if _, err := w.Write(frame); err != nil {
		return abort(err)
	}
	size += int64(len(frame))
	for _, rec := range recs {
		frame, ref, err := j.frameLocked(rec)
		if err != nil {
			return abort(fmt.Errorf("journal: compact record %s/%s: %w", rec.Op, rec.ID, err))
		}
		if ref != "" {
			keep[ref] = true
		}
		if _, err := w.Write(frame); err != nil {
			return abort(err)
		}
		size += int64(len(frame))
	}
	if err := w.Flush(); err != nil {
		return abort(err)
	}
	if err := nf.Sync(); err != nil {
		return abort(err)
	}

	if testHookCompactCrash != nil && testHookCompactCrash("written") {
		nf.Close()
		return errCompactAborted // temp left behind, as a crash would
	}

	if err := os.Rename(tmp, j.path); err != nil {
		return abort(fmt.Errorf("journal: rotate log: %w", err))
	}
	// Make the rename durable: fsync the containing directory.
	if d, err := os.Open(filepath.Dir(j.path)); err == nil {
		d.Sync()
		d.Close()
	}

	if testHookCompactCrash != nil && testHookCompactCrash("renamed") {
		nf.Close()
		return errCompactAborted
	}

	// The new log is live: swap descriptors and reset the generation
	// accounting. nf is positioned at the end from the writes above.
	j.f.Close()
	j.f = nf
	j.buf = j.buf[:0]
	j.dirty = false
	j.size = size
	j.records = int64(len(recs)) + 1 // snapshot + checkpoint marker
	j.lastCompactSize = size
	j.lastCompactRecs = j.records
	j.compactions.Add(1)

	j.gcSpillLocked(keep)
	return nil
}
