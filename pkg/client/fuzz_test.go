package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// TestDaemonAnswersTakeOneScan: every POST /jobs?wait answer pinned in
// the daemon's wire golden decodes in one scan, to what json.Unmarshal
// gives. The layout answerSettled writes is load-bearing: written in
// another order, the answer would still decode — on the slow path, with
// no other test failing.
func TestDaemonAnswersTakeOneScan(t *testing.T) {
	golden, err := os.ReadFile("../../internal/simd/testdata/wire.golden")
	if err != nil {
		t.Fatal(err)
	}
	answers := regexp.MustCompile(`(?m)^=== [^\n]*: POST /jobs\?wait\nHTTP 200\n(?:[^\n]+\n)*\n([^\n]*)\n`).FindAllSubmatch(golden, -1)
	if len(answers) < 3 {
		t.Fatalf("found %d wait answers in the golden file, want done, hit and failed", len(answers))
	}
	for _, m := range answers {
		data := bytes.ReplaceAll(m[1], []byte(`"<time>"`), []byte(`"2026-01-02T03:04:05.678Z"`))
		ans, ok := oneScan(data)
		var want settled
		if err := json.Unmarshal(data, &want); !ok || err != nil || !reflect.DeepEqual(ans, want) {
			t.Errorf("answer takes one scan: %v; decodes to %+v, want %+v (%v)\n%s", ok, ans, want, err, data)
		}
	}
}

// FuzzWaitAnswer feeds the POST /jobs?wait decoder arbitrary bytes — a
// truncated answer, another server's page, a document of the wrong
// shape. It must not panic; it must agree with json.Unmarshal into a
// settled, result for result and error for error, whichever path it
// takes; only a whole JSON document may decode; and cutting a decodable
// answer short anywhere must be an error, never a terminal status Run
// would hand back.
func FuzzWaitAnswer(f *testing.F) {
	done := `{"status":{"id":"j000002","hash":"0aa2","state":"done","cache_hit":false,"rounds":1,"gvt":5.07,"efficiency":0.88,` +
		`"submitted_at":"2026-01-02T03:04:05Z","cache_hit_now":false,"deduped_now":false},"report":{"schema":"cagvt.run-report/1"}}`
	for _, seed := range []string{
		done,
		`{"status":{"id":"j1","state":"failed","error":"simd: engine panic: boom","cache_hit_now":false,"deduped_now":false}}`,
		`{"id":"c1","state":"queued","cache_hit_now":false,"deduped_now":false,"node_id":"n1"}`, // a router's flat answer
		done[:len(done)/2],
		`{"status":null,"report":null}`,
		`{"status":{"state":7}}`,
		`[]`, `"done"`, ``, "<html>502 Bad Gateway</html>",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ans, err := decodeSettled(data)
		var want settled
		wantErr := json.Unmarshal(data, &want)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || err == nil && !reflect.DeepEqual(ans, want) {
			t.Fatalf("decodeSettled and json.Unmarshal disagree on %q:\n got  %+v %v\n want %+v %v", data, ans, err, want, wantErr)
		}
		if err != nil {
			return // Run returns the error; no status leaves the client
		}
		if !json.Valid(data) {
			t.Fatalf("decoded an answer that is not one JSON document: %q", data)
		}
		st := ans.job()
		if ans.Report != nil && !json.Valid(ans.Report) {
			t.Fatalf("answer carries a report that is not JSON: %q", ans.Report)
		}
		if !Terminal(st.State) {
			return // Run carries on from st.ID with Await
		}
		if err := terminalErr(st); (err == nil) != (st.State == StateDone) {
			t.Fatalf("terminal answer %+v mapped to %v", st, err)
		}
		body := bytes.TrimRight(data, " \t\r\n")
		for _, cut := range []int{len(body) - 1, len(body) / 2, 1} {
			if cut <= 0 || cut >= len(body) {
				continue
			}
			if _, err := decodeSettled(body[:cut]); err == nil {
				t.Fatalf("answer cut to %d of %d bytes still decoded: %q", cut, len(body), body[:cut])
			}
		}
	})
}

// FuzzEventLine feeds the events-stream reader arbitrary bytes. It must
// not panic; it reports the end of the job only for a stream that holds
// an "end" record, every record before it being JSON; and a stream cut
// anywhere before that record's last byte is an error.
func FuzzEventLine(f *testing.F) {
	progress := `{"type":"progress","round":1,"gvt":5.07,"at_ns":510150,"sync":false,"efficiency":0.88,"processed":86,"committed":76,"rollbacks":4,"rolled_back":10,"migrations":0}` + "\n"
	end := `{"type":"end","state":"done"}` + "\n"
	for _, seed := range []string{
		progress + progress + end,
		end,
		`{"type":"end","state":"failed","error":"wall-clock deadline 1s exceeded"}` + "\n",
		progress + end[:10],
		progress,
		"\n\n" + end,
		`{"type":"progress"}` + "\n" + end,
		`{"type":"heartbeat"}` + "\n" + end, // a record type from a newer daemon is skipped
		"this is not json\n" + end,
		`{"type":"end","round":"one"}` + "\n",
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rounds := 0
		err := followEvents(bytes.NewReader(data), "j1", func(Progress) error { rounds++; return nil })
		if err != nil {
			return
		}
		// The stream ended the job: find the end record and check what
		// came before it.
		lines := bytes.Split(data, []byte("\n"))
		endAt, seen := -1, 0
		for i, line := range lines {
			if len(line) == 0 {
				continue
			}
			var ev EventLine
			if json.Unmarshal(line, &ev) != nil {
				t.Fatalf("stream accepted with a record that is not JSON: %q", line)
			}
			if ev.Type == "progress" && ev.Progress != nil {
				seen++
			}
			if ev.Type == "end" {
				endAt = i
				break
			}
		}
		if endAt < 0 || seen != rounds {
			t.Fatalf("stream accepted: end record at line %d, %d progress records, %d delivered\n%q", endAt, seen, rounds, data)
		}
		// Trailing space is not part of the record: cutting it cuts nothing.
		lines[endAt] = bytes.TrimRight(lines[endAt], " \t\r")
		upTo := len(bytes.Join(lines[:endAt+1], []byte("\n")))
		for _, cut := range []int{upTo - 1, upTo / 2} {
			if cut >= 0 && followEvents(bytes.NewReader(data[:cut]), "j1", nil) == nil {
				t.Fatalf("stream cut to %d of %d bytes still ended the job: %q", cut, upTo, data[:cut])
			}
		}
	})
}
