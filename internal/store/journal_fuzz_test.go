package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay feeds OpenJournal a journal file of arbitrary bytes —
// what a crash mid-append, a bad disk or another program can leave at the
// path. It must open without panicking or failing, must not invent a job
// (every pending hash is the hash of a well-formed begin line of the
// input), and the file it compacts to must replay to the same work list.
func FuzzJournalReplay(f *testing.F) {
	begin := func(n int) string {
		return fmt.Sprintf(`{"op":"begin","hash":%q,"spec":{"seed":%d}}`+"\n", testHash(n), n)
	}
	end := func(n int) string {
		return fmt.Sprintf(`{"op":"end","hash":%q,"state":"done"}`+"\n", testHash(n))
	}
	for _, seed := range []string{
		"",
		begin(1) + end(1),
		begin(1) + begin(2) + end(1),
		begin(1) + `{"op":"end","ha`,
		end(9),
		begin(5) + end(5) + begin(5),
		begin(3) + begin(3),
		"\n\n  \n" + begin(4) + "\r\n",
		`{"op":"begin","hash":"","spec":null}` + "\n",
		`{"op":"begin","hash":"\xff\xfe"}` + "\n" + `[1,2]` + "\n" + `"begin"` + "\n",
		"\x00\x01\x02 not json at all",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.ndjson")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, nil, nil)
		if err != nil {
			t.Fatalf("OpenJournal: %v", err)
		}
		pending := j.Pending()
		j.Close()

		begun := make(map[string]bool)
		for _, line := range bytes.Split(data, []byte("\n")) {
			var rec struct{ Op, Hash string }
			if json.Unmarshal(line, &rec) == nil && rec.Op == "begin" {
				begun[rec.Hash] = true
			}
		}
		for _, p := range pending {
			if p.Hash == "" || !begun[p.Hash] {
				t.Fatalf("pending job %q has no begin line in the input %q", p.Hash, data)
			}
		}

		j2, err := OpenJournal(path, nil, nil)
		if err != nil {
			t.Fatalf("reopening the compacted journal: %v", err)
		}
		defer j2.Close()
		again := j2.Pending()
		if len(again) != len(pending) {
			t.Fatalf("compaction changed the work list: %d pending, then %d", len(pending), len(again))
		}
		for i := range again {
			if again[i].Hash != pending[i].Hash {
				t.Fatalf("compaction changed pending[%d]: %q, then %q", i, pending[i].Hash, again[i].Hash)
			}
		}
	})
}
