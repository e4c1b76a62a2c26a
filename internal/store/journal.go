package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Journal is the warm-restart job log: one NDJSON line per lifecycle
// edge ("begin" when a job is admitted, "end" when it settles). After a
// crash, begins without a matching end are the jobs that were queued or
// running — OpenJournal surfaces them for re-submission. Because results
// are content-addressed, replay is idempotent: a job that actually
// completed (its result reached the store before the crash, even if the
// "end" record didn't) re-enters as a cache hit with zero re-execution;
// only genuinely interrupted work re-runs.
//
// That idempotence decides which appends are fsynced. A begin is: an
// acknowledged admission must survive a crash, and nothing else records
// it. So is End: for a failed or cancelled job, or a done one whose
// result did not reach the store, the journal is the only record of the
// outcome, and losing it would re-run work the caller stopped or
// already has. EndPublished — the end of a done job whose result the
// store holds — and Retire are plain appends: a crash that loses the
// record replays the begin, which resolves as a store hit and is
// retired (a retired memory-only hit, at worst, costs one redundant run
// of a deterministic job). An unsynced line reaches the disk with the
// next fsynced append to the file.
//
// The journal is per-daemon state: daemons sharing a store directory
// must use distinct journal paths (OpenJournal compacts the file at
// startup, which would drop a sibling's live appends).
type Journal struct {
	path string
	fs   FS
	log  *slog.Logger

	mu sync.Mutex
	f  File

	pending   []Pending
	retirable map[string]bool // replayed hashes with an un-ended begin on disk
	appends   atomic.Int64
	errs      atomic.Int64
}

// journalRecord is one NDJSON line.
type journalRecord struct {
	Op   string          `json:"op"` // "begin" | "end"
	Hash string          `json:"hash"`
	Spec json.RawMessage `json:"spec,omitempty"`  // begin only
	End  string          `json:"state,omitempty"` // end only: terminal state
}

// Pending is a journaled job that never reached a terminal state: the
// warm-restart work list.
type Pending struct {
	Hash string
	Spec json.RawMessage
}

// JournalStats is a point-in-time snapshot of journal accounting.
type JournalStats struct {
	Path string `json:"path"`
	// Recovered is how many pending jobs the startup replay found.
	Recovered int   `json:"recovered"`
	Appends   int64 `json:"appends"`
	Errors    int64 `json:"errors"`
}

// OpenJournal opens (creating if needed) the journal at path, replays
// it, compacts it down to the still-pending begins, and reopens it for
// appending. Call Pending for the replayed work list.
func OpenJournal(path string, fsys FS, logger *slog.Logger) (*Journal, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	if logger == nil {
		logger = obs.NopLogger()
	}
	j := &Journal{path: path, fs: fsys, log: logger}
	if err := j.fs.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("store: journal: %w", err)
	}
	pending, err := j.replay()
	if err != nil {
		return nil, err
	}
	j.pending = pending
	j.retirable = make(map[string]bool, len(pending))
	for _, p := range pending {
		j.retirable[p.Hash] = true
	}
	if err := j.compact(pending); err != nil {
		return nil, err
	}
	f, err := j.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: journal: %w", err)
	}
	j.f = f
	if len(pending) > 0 {
		j.log.Info("journal replay found interrupted jobs", "path", path, "pending", len(pending))
	}
	return j, nil
}

// replay reads the journal and returns begins without a matching end,
// in original admission order. Unparseable lines — typically one torn
// tail line from a crash mid-append — are skipped: losing one record
// costs at most one redundant (and cache-absorbed) re-submission.
func (j *Journal) replay() ([]Pending, error) {
	data, err := j.fs.ReadFile(j.path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: journal: %w", err)
	}
	open := make(map[string]int) // hash → index into order; -1 = ended
	var order []Pending
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			j.log.Warn("journal: skipping unparseable line", "error", err.Error())
			continue
		}
		switch rec.Op {
		case "begin":
			if i, ok := open[rec.Hash]; !ok || i == -1 {
				open[rec.Hash] = len(order)
				order = append(order, Pending{Hash: rec.Hash, Spec: rec.Spec})
			}
		case "end":
			if i, ok := open[rec.Hash]; ok && i >= 0 {
				order[i].Hash = "" // tombstone, filtered below
				open[rec.Hash] = -1
			}
		}
	}
	out := order[:0]
	for _, p := range order {
		if p.Hash != "" {
			out = append(out, p)
		}
	}
	return out, nil
}

// compact rewrites the journal to hold only the pending begins, via the
// same temp + fsync + rename publish protocol as store entries.
func (j *Journal) compact(pending []Pending) error {
	tmp, err := j.fs.CreateTemp(filepath.Dir(j.path), "journal-*")
	if err != nil {
		return fmt.Errorf("store: journal compact: %w", err)
	}
	name := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		j.fs.Remove(name)
		return fmt.Errorf("store: journal compact: %w", err)
	}
	for _, p := range pending {
		line, err := json.Marshal(journalRecord{Op: "begin", Hash: p.Hash, Spec: p.Spec})
		if err != nil {
			return fail(err)
		}
		if _, err := tmp.Write(append(line, '\n')); err != nil {
			return fail(err)
		}
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		j.fs.Remove(name)
		return fmt.Errorf("store: journal compact: %w", err)
	}
	if err := j.fs.Rename(name, j.path); err != nil {
		j.fs.Remove(name)
		return fmt.Errorf("store: journal compact: %w", err)
	}
	return nil
}

// Pending returns the jobs the startup replay found interrupted.
func (j *Journal) Pending() []Pending {
	out := make([]Pending, len(j.pending))
	copy(out, j.pending)
	return out
}

// Begin journals a job admission, fsynced. spec must be its canonical
// JSON.
func (j *Journal) Begin(hash string, spec json.RawMessage) error {
	return j.append(journalRecord{Op: "begin", Hash: hash, Spec: spec}, true)
}

// End journals a job reaching terminal state, fsynced: nothing else
// records the outcome.
func (j *Journal) End(hash, state string) error {
	return j.append(journalRecord{Op: "end", Hash: hash, End: state}, true)
}

// EndPublished journals the end of a done job whose result the caller
// has already published to the store. It is not fsynced: the store is
// the durable record (see the Journal comment).
func (j *Journal) EndPublished(hash string) error {
	return j.append(journalRecord{Op: "end", Hash: hash, End: "done"}, false)
}

// Retire ends a replayed-pending job that settled without re-executing —
// a warm-restart submission absorbed by the cache or store. Without it
// the job's lone begin would replay on every subsequent restart. Hashes
// the replay did not find pending are a no-op, so ordinary cache hits
// stay journal-free.
func (j *Journal) Retire(hash string) error {
	j.mu.Lock()
	ok := j.retirable[hash]
	delete(j.retirable, hash)
	j.mu.Unlock()
	if !ok {
		return nil
	}
	return j.EndPublished(hash)
}

// append writes one NDJSON line, fsynced when sync is set. Failures are
// counted and returned but must not fail the job they describe — a lost
// journal line costs at most one redundant restart re-submission.
func (j *Journal) append(rec journalRecord, sync bool) error {
	line, err := json.Marshal(rec)
	if err != nil {
		j.errs.Add(1)
		return err
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(line); err != nil {
		j.errs.Add(1)
		return err
	}
	if sync {
		if err := j.f.Sync(); err != nil {
			j.errs.Add(1)
			return err
		}
	}
	j.appends.Add(1)
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// Stats returns a snapshot of journal accounting.
func (j *Journal) Stats() JournalStats {
	return JournalStats{
		Path:      j.path,
		Recovered: len(j.pending),
		Appends:   j.appends.Load(),
		Errors:    j.errs.Load(),
	}
}
