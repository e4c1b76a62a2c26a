package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openTestJournal(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := OpenJournal(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func TestJournalCleanRunLeavesNothingPending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	j := openTestJournal(t, path)
	spec := json.RawMessage(`{"model":"phold","seed":1}`)
	if err := j.Begin(testHash(1), spec); err != nil {
		t.Fatal(err)
	}
	if err := j.End(testHash(1), "done"); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2 := openTestJournal(t, path)
	if p := j2.Pending(); len(p) != 0 {
		t.Fatalf("pending = %v after a clean begin/end", p)
	}
	// Compaction emptied the file.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("compacted journal not empty: %q", data)
	}
}

func TestJournalReplaysInterruptedJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	j := openTestJournal(t, path)
	specA := json.RawMessage(`{"seed":1}`)
	specB := json.RawMessage(`{"seed":2}`)
	if err := j.Begin(testHash(1), specA); err != nil {
		t.Fatal(err)
	}
	if err := j.Begin(testHash(2), specB); err != nil {
		t.Fatal(err)
	}
	if err := j.End(testHash(1), "done"); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, hash 2 never ended.

	j2 := openTestJournal(t, path)
	p := j2.Pending()
	if len(p) != 1 || p[0].Hash != testHash(2) || string(p[0].Spec) != string(specB) {
		t.Fatalf("pending = %+v, want just hash 2", p)
	}
	st := j2.Stats()
	if st.Recovered != 1 {
		t.Fatalf("recovered = %d, want 1", st.Recovered)
	}

	// Compaction preserved the pending begin across a further reopen
	// with no new activity.
	j2.Close()
	j3 := openTestJournal(t, path)
	if p := j3.Pending(); len(p) != 1 || p[0].Hash != testHash(2) {
		t.Fatalf("pending after second reopen = %+v", p)
	}
}

// TestJournalTornTailLine: a crash mid-append leaves a partial final
// line; replay must skip it and keep every complete record.
func TestJournalTornTailLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	j := openTestJournal(t, path)
	if err := j.Begin(testHash(1), json.RawMessage(`{"seed":1}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"end","ha`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2 := openTestJournal(t, path)
	if p := j2.Pending(); len(p) != 1 || p[0].Hash != testHash(1) {
		t.Fatalf("pending = %+v, want the intact begin", p)
	}
}

func TestJournalEndWithoutBeginIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	j := openTestJournal(t, path)
	if err := j.End(testHash(9), "done"); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2 := openTestJournal(t, path)
	if p := j2.Pending(); len(p) != 0 {
		t.Fatalf("pending = %+v from a stray end", p)
	}
}

func TestJournalReBeginAfterEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	j := openTestJournal(t, path)
	h := testHash(5)
	if err := j.Begin(h, json.RawMessage(`{"seed":5}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.End(h, "failed"); err != nil {
		t.Fatal(err)
	}
	if err := j.Begin(h, json.RawMessage(`{"seed":5}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2 := openTestJournal(t, path)
	if p := j2.Pending(); len(p) != 1 || p[0].Hash != h {
		t.Fatalf("pending = %+v, want the re-begun job", p)
	}
}

func TestJournalAppendCountsErrors(t *testing.T) {
	ffs := newFaultFS()
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	j, err := OpenJournal(path, ffs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	ffs.setFail(func(op, p string) error {
		if op == "write" && strings.Contains(p, "journal.ndjson") {
			return os.ErrPermission
		}
		return nil
	})
	if err := j.Begin(testHash(1), json.RawMessage(`{}`)); err == nil {
		t.Fatal("append under permission loss succeeded")
	}
	if st := j.Stats(); st.Errors != 1 {
		t.Fatalf("errors = %d, want 1", st.Errors)
	}
}

// TestJournalSyncPolicy: a begin and every End — failed, cancelled, or
// done with nothing published — are fsynced before the call returns,
// because nothing else records them, while EndPublished and a
// retirement, whose result the store holds, are plain appends that
// still reach the file.
func TestJournalSyncPolicy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	spec := json.RawMessage(`{"seed":1}`)

	// A previous life leaves one begin pending, so this one has a job
	// to retire.
	j0 := openTestJournal(t, path)
	if err := j0.Begin(testHash(4), spec); err != nil {
		t.Fatal(err)
	}
	j0.Close()

	ffs := newFaultFS()
	syncs := 0
	ffs.setFail(func(op, p string) error {
		if op == "sync" && p == path {
			syncs++
		}
		return nil
	})
	j, err := OpenJournal(path, ffs, nil)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name string
		do   func() error
		want int
	}{
		{"begin", func() error { return j.Begin(testHash(1), spec) }, 1},
		{"end published", func() error { return j.EndPublished(testHash(1)) }, 0},
		{"begin", func() error { return j.Begin(testHash(5), spec) }, 1},
		{"end done, not published", func() error { return j.End(testHash(5), "done") }, 1},
		{"begin", func() error { return j.Begin(testHash(2), spec) }, 1},
		{"end failed", func() error { return j.End(testHash(2), "failed") }, 1},
		{"begin", func() error { return j.Begin(testHash(3), spec) }, 1},
		{"end cancelled", func() error { return j.End(testHash(3), "cancelled") }, 1},
		{"retire", func() error { return j.Retire(testHash(4)) }, 0},
	}
	for _, st := range steps {
		syncs = 0
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if syncs != st.want {
			t.Errorf("%s: %d journal fsyncs, want %d", st.name, syncs, st.want)
		}
	}
	if got := j.Stats().Appends; got != int64(len(steps)) {
		t.Errorf("appends = %d, want %d", got, len(steps))
	}
	j.Close()

	// Unsynced is not unwritten: every record is in the file.
	if p := openTestJournal(t, path).Pending(); len(p) != 0 {
		t.Fatalf("pending = %+v after every job ended", p)
	}
}
