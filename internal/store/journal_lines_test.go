package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/run"
)

// TestJournalLinesAsBefore: every record kind — begin, end, a published
// end and a retire, a canonical spec, and a hash and spec holding what
// json.Marshal escapes or compacts — is written byte for byte as the
// journal wrote it when each line was a json.Marshal of its own
// (testdata/journal_v1*.ndjson, written by that code), and the two
// files replay to the same compacted journal. The appended file is also
// a FuzzJournalReplay seed.
func TestJournalLinesAsBefore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.ndjson")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	j, err := OpenJournal(path, nil, nil)
	must(err)
	var hashes []string
	for seed := uint64(1); seed <= 3; seed++ {
		_, spec, hash, err := run.Spec{Nodes: 1, WorkersPerNode: 2, LPsPerWorker: 4, EndTime: 5, Seed: seed}.Address()
		must(err)
		must(j.Begin(hash, spec))
		hashes = append(hashes, hash)
	}
	must(j.EndPublished(hashes[0]))
	must(j.End(hashes[1], "failed"))
	const odd = "odd<&>\"hash\u2028"
	must(j.Begin(odd, json.RawMessage(" { \"label\" : \"<a&b>\u2028\" , \"seed\" : 7 } ")))
	must(j.End(odd, "cancelled"))
	must(j.Begin(testHash(9), json.RawMessage(`{"seed":9}`)))
	must(j.Close())
	same(t, path, "testdata/journal_v1.ndjson")

	// Reopening compacts to the pending begins; retiring one appends its end.
	for _, p := range []string{path, filepath.Join(dir, "v1.ndjson")} {
		if p != path {
			data, err := os.ReadFile("testdata/journal_v1.ndjson")
			must(err)
			must(os.WriteFile(p, data, 0o644))
		}
		j, err := OpenJournal(p, nil, nil)
		must(err)
		must(j.Retire(testHash(9)))
		must(j.Close())
		same(t, p, "testdata/journal_v1_compacted.ndjson")
	}
}

// same fails the test unless the file at path holds want's bytes.
func same(t *testing.T, path, want string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, w) {
		t.Fatalf("journal differs from %s:\n got  %s\n want %s", want, got, w)
	}
}
