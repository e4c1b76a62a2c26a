package simd

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/metrics"
)

// TestFlightTailBounds pins the tail arithmetic on a bare job: the tail
// is the newest suffix of the history, a history shorter than the tail is
// served whole, and the round count survives release.
func TestFlightTailBounds(t *testing.T) {
	j := newJob(1, "h", JobSpec{})
	if fr := j.Flight(4); fr.Recent != nil || fr.RoundsTotal != 0 || fr.RoundsDropped != 0 || !fr.Retained {
		t.Fatalf("flight before the first round: %+v", fr)
	}
	for i := 1; i <= 10; i++ {
		j.publish(metrics.ProgressUpdate{Round: int64(i), GVT: float64(i)})
	}
	fr := j.Flight(4)
	if fr.RoundsTotal != 10 || fr.RoundsDropped != 6 || len(fr.Recent) != 4 || fr.GVT != 10 {
		t.Fatalf("total %d dropped %d recent %d gvt %v, want 10/6/4/10",
			fr.RoundsTotal, fr.RoundsDropped, len(fr.Recent), fr.GVT)
	}
	for i, u := range fr.Recent {
		if want := int64(7 + i); u.Round != want {
			t.Fatalf("recent[%d].Round = %d, want %d", i, u.Round, want)
		}
	}
	if fr := j.Flight(64); len(fr.Recent) != 10 || fr.RoundsDropped != 0 {
		t.Fatalf("a tail longer than the history: %d rounds, %d dropped", len(fr.Recent), fr.RoundsDropped)
	}
	j.releaseHistory()
	fr = j.Flight(4)
	if fr.Retained || fr.Recent != nil || fr.RoundsTotal != 10 || fr.RoundsDropped != 10 || fr.GVT != 0 {
		t.Fatalf("released flight: %+v", fr)
	}
	if j.Rounds() != 10 || j.status().Rounds != 10 {
		t.Fatalf("released job counts %d rounds, status %d, want 10", j.Rounds(), j.status().Rounds)
	}
}

// TestFlightOfCompletedJob runs a real job and checks the flight
// recorder agrees with the streamed history: same round count, the
// retained tail is the newest suffix, and the terminal state rides
// along.
func TestFlightOfCompletedJob(t *testing.T) {
	s := NewServer(Options{Workers: 1})
	defer s.Close()
	res, err := s.Submit(fastSpec(77))
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Job.Wait(waitCtx(t)); st != StateDone {
		t.Fatalf("state %s", st)
	}
	events, _, _ := res.Job.WaitEvents(waitCtx(t), 0)
	fr := res.Job.Flight(8)
	if fr.State != StateDone || !fr.Retained {
		t.Fatalf("flight %+v", fr)
	}
	if fr.RoundsTotal != int64(len(events)) {
		t.Fatalf("flight rounds %d != streamed %d", fr.RoundsTotal, len(events))
	}
	if len(fr.Recent) == 0 || len(fr.Recent) > 8 {
		t.Fatalf("retained %d rounds, want 1..8", len(fr.Recent))
	}
	tail := events[len(events)-len(fr.Recent):]
	for i := range tail {
		if fr.Recent[i] != tail[i] {
			t.Fatalf("flight[%d] = %+v, stream tail %+v", i, fr.Recent[i], tail[i])
		}
	}
	if fr.GVT != tail[len(tail)-1].GVT {
		t.Fatalf("flight GVT %v != last round %v", fr.GVT, tail[len(tail)-1].GVT)
	}
	if fr.RoundsDropped != fr.RoundsTotal-int64(len(fr.Recent)) {
		t.Fatalf("dropped %d inconsistent with total %d retained %d",
			fr.RoundsDropped, fr.RoundsTotal, len(fr.Recent))
	}
}

// TestFlightOfCancelledJob is the post-mortem use case: cancel a
// running job, then read its final approach from the flight endpoint.
func TestFlightOfCancelledJob(t *testing.T) {
	s, ts := newTestService(t, Options{Workers: 1})
	res, err := s.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, res.Job)
	if err := s.Cancel(res.Job.ID()); err != nil {
		t.Fatal(err)
	}
	if st := res.Job.Wait(waitCtx(t)); st != StateCancelled {
		t.Fatalf("state %s", st)
	}
	code, body, _ := getBody(t, ts.URL+"/jobs/"+res.Job.ID()+"/flight")
	if code != http.StatusOK {
		t.Fatalf("flight: %d %s", code, body)
	}
	var fr FlightRecord
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.State != StateCancelled || !fr.Retained || len(fr.Recent) == 0 {
		t.Fatalf("cancelled flight %+v", fr)
	}
	if fr.FinishedAt == nil || fr.StartedAt == nil {
		t.Fatalf("flight missing timestamps: %+v", fr)
	}
}

// TestFlightServesNewest64 pins flightRounds at its boundary: /flight
// of a job with more than 64 rounds serves exactly the newest 64.
func TestFlightServesNewest64(t *testing.T) {
	s, ts := newTestService(t, Options{Workers: 1})
	res, err := s.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= 64; {
		events, _, done := res.Job.WaitEvents(waitCtx(t), n)
		if done {
			t.Fatalf("job settled after %d rounds, want more than 64", n+len(events))
		}
		n += len(events)
	}
	if err := s.Cancel(res.Job.ID()); err != nil {
		t.Fatal(err)
	}
	res.Job.Wait(waitCtx(t))
	events, _, _ := res.Job.WaitEvents(waitCtx(t), 0)
	code, body, _ := getBody(t, ts.URL+"/jobs/"+res.Job.ID()+"/flight")
	if code != http.StatusOK {
		t.Fatalf("flight: %d %s", code, body)
	}
	var fr FlightRecord
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Recent) != 64 || fr.RoundsTotal != int64(len(events)) || fr.RoundsDropped != fr.RoundsTotal-64 {
		t.Fatalf("flight of %d rounds: recent %d, total %d, dropped %d; want 64 of the newest",
			len(events), len(fr.Recent), fr.RoundsTotal, fr.RoundsDropped)
	}
	tail := events[len(events)-64:]
	for i := range tail {
		if fr.Recent[i].Round != tail[i].Round {
			t.Fatalf("flight[%d] is round %d, stream tail has %d", i, fr.Recent[i].Round, tail[i].Round)
		}
	}
}

// TestFlightRetention pins the bounded-memory contract: once more jobs
// have executed than FlightRetain allows, the oldest loses its event
// history but keeps identity, state and counts; newer jobs keep theirs.
func TestFlightRetention(t *testing.T) {
	run := func(t *testing.T, s *Server, seed uint64) *Job {
		t.Helper()
		res, err := s.Submit(fastSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		if st := res.Job.Wait(waitCtx(t)); st != StateDone {
			t.Fatalf("seed %d: state %s", seed, st)
		}
		return res.Job
	}

	t.Run("executed jobs age out", func(t *testing.T) {
		s := NewServer(Options{Workers: 1, FlightRetain: 2, CacheBytes: -1})
		defer s.Close()
		var jobs []*Job
		for i := 0; i < 4; i++ {
			jobs = append(jobs, run(t, s, uint64(500+i)))
		}
		// Wait returns once a job settles, but execute enrolls it in
		// retention (releasing the oldest) in a later step; draining the
		// pool waits for that step of the last job.
		s.Close()
		for i, j := range jobs {
			fr := j.Flight(64)
			wantRetained := i >= 2 // only the 2 newest keep history
			if fr.Retained != wantRetained {
				t.Fatalf("job %d retained=%v, want %v", i, fr.Retained, wantRetained)
			}
			if fr.RoundsTotal == 0 {
				t.Fatalf("job %d lost its round count", i)
			}
			if !wantRetained {
				if fr.Recent != nil || fr.RoundsDropped != fr.RoundsTotal {
					t.Fatalf("released job %d still has history: %+v", i, fr)
				}
				if j.Rounds() == 0 {
					t.Fatalf("released job %d lost Rounds()", i)
				}
				// The report must survive release: history is bounded, results
				// are not dropped.
				if _, ok := j.Report(); !ok {
					t.Fatalf("released job %d lost its report", i)
				}
				// A replay of a released stream ends immediately but cleanly.
				events, state, done := j.WaitEvents(waitCtx(t), 0)
				if len(events) != 0 || state != StateDone || !done {
					t.Fatalf("released job %d replay: %d events, %s, done=%v", i, len(events), state, done)
				}
			}
		}
	})

	// With the cache on, resubmissions are born done and have no history:
	// they must not push the job that did execute out of the window.
	t.Run("cache hits do not count", func(t *testing.T) {
		s, ts := newTestService(t, Options{Workers: 1, FlightRetain: 2})
		executed := run(t, s, 510)
		for i := 0; i < 3; i++ {
			if hit := run(t, s, 510); !hit.status().CacheHit {
				t.Fatalf("resubmission %d executed", i)
			}
		}
		code, body, _ := getBody(t, ts.URL+"/jobs/"+executed.ID()+"/flight")
		var fr FlightRecord
		if err := json.Unmarshal(body, &fr); code != http.StatusOK || err != nil {
			t.Fatalf("flight: %d %s (%v)", code, body, err)
		}
		if !fr.Retained || len(fr.Recent) == 0 {
			t.Fatalf("three cache hits aged the executed job out: %+v", fr)
		}
	})
}

// TestFlightNotFound pins the 404 path.
func TestFlightNotFound(t *testing.T) {
	_, ts := newTestService(t, Options{Workers: 1})
	code, _, _ := getBody(t, ts.URL+"/jobs/nope/flight")
	if code != http.StatusNotFound {
		t.Fatalf("flight of missing job: %d, want 404", code)
	}
}
