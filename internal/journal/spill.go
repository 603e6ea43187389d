package journal

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Result spill: a finished record whose result summary would push the
// payload past MaxRecordBytes journals a sha256 hash instead, and the
// result bytes live in a content-addressed side file under
// <journal>.spill/<hash>. Content addressing makes writes idempotent
// (re-spilling the same bytes is a no-op) and lets compaction
// garbage-collect by simple reachability: any file not referenced by the
// snapshot being written is deleted.

// MaxSpillBytes caps one spilled result read back at boot, so a corrupted
// or hostile spill directory cannot make replay allocate without bound.
const MaxSpillBytes = 64 << 20

// SpillDir is the directory holding this journal's spilled results.
func (j *Journal) SpillDir() string { return j.path + ".spill" }

// spillRefValid reports whether ref looks like one of our file names: a
// lowercase hex sha256. Anything else (path separators, "..", drive
// letters) must never reach the filesystem.
func spillRefValid(ref string) bool {
	if len(ref) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(ref); i++ {
		c := ref[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// writeSpillLocked stores data under its sha256 name, durably (write temp,
// fsync, rename). Callers hold j.mu, which also serializes the spill
// counters against compaction's garbage collection.
func (j *Journal) writeSpillLocked(data []byte) (string, error) {
	sum := sha256.Sum256(data)
	ref := hex.EncodeToString(sum[:])
	dir := j.SpillDir()
	path := filepath.Join(dir, ref)
	if _, err := os.Stat(path); err == nil {
		return ref, nil // content-addressed: already spilled
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	j.spillFiles++
	j.spillBytes += int64(len(data))
	return ref, nil
}

// ReadSpill loads a spilled result by the hash a replayed record carries
// in ResultRef, verifying the content against the hash (a spill file is
// outside the journal's CRC framing, so it brings its own integrity
// check).
func (j *Journal) ReadSpill(ref string) ([]byte, error) {
	if !spillRefValid(ref) {
		return nil, fmt.Errorf("journal: invalid spill ref %q", ref)
	}
	path := filepath.Join(j.SpillDir(), ref)
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.Size() > MaxSpillBytes {
		return nil, fmt.Errorf("journal: spill %s is %d bytes, over the %d cap", ref, fi.Size(), MaxSpillBytes)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != ref {
		return nil, fmt.Errorf("journal: spill %s fails its content hash", ref)
	}
	return data, nil
}

// scanSpillDir initializes the spill counters from the directory contents
// at OpenWith, dropping stray .tmp files from a crash mid-spill.
func (j *Journal) scanSpillDir() {
	entries, err := os.ReadDir(j.SpillDir())
	if err != nil {
		return // no spill dir yet
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(j.SpillDir(), e.Name()))
			continue
		}
		if !spillRefValid(e.Name()) {
			continue
		}
		if fi, err := e.Info(); err == nil {
			j.spillFiles++
			j.spillBytes += fi.Size()
		}
	}
}

// gcSpillLocked deletes every spill file not named in keep, rebuilding
// the counters from what survives. Callers hold j.mu.
func (j *Journal) gcSpillLocked(keep map[string]bool) {
	entries, err := os.ReadDir(j.SpillDir())
	if err != nil {
		return
	}
	j.spillFiles, j.spillBytes = 0, 0
	for _, e := range entries {
		name := e.Name()
		if !spillRefValid(name) || !keep[name] {
			os.Remove(filepath.Join(j.SpillDir(), name))
			continue
		}
		if fi, err := e.Info(); err == nil {
			j.spillFiles++
			j.spillBytes += fi.Size()
		}
	}
}
