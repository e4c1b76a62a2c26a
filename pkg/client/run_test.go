package client

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRunWaitAnswerMapsOutcomes: the one-exchange answer goes through
// the same outcome contract as Await — nil with the report for done,
// ErrCancelled, ErrDeadline, *JobFailedError — and the status comes
// back either way.
func TestRunWaitAnswerMapsOutcomes(t *testing.T) {
	cases := []struct {
		name   string
		state  string
		errMsg string
		want   error
	}{
		{"done", StateDone, "", nil},
		{"cancelled", StateCancelled, "", ErrCancelled},
		{"service deadline", StateFailed, "wall-clock deadline 1s exceeded", ErrDeadline},
		{"plain failure", StateFailed, "simd: engine panic: boom", nil}, // → *JobFailedError
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFakeSimd()
			f.waits = true
			f.onSubmit = func(j *fakeJob) {
				j.report = []byte(`{"rounds":3}`)
				j.settle(tc.state, tc.errMsg)
			}
			c := start(t, f)

			st, report, err := c.Run(context.Background(), spec)
			if st.ID == "" || st.State != tc.state {
				t.Fatalf("Run returned status %+v, want the %s document", st, tc.state)
			}
			switch {
			case tc.state == StateDone:
				if err != nil || string(report) != `{"rounds":3}` {
					t.Fatalf("Run: report %q err %v", report, err)
				}
			case tc.want != nil:
				if !errors.Is(err, tc.want) || report != nil {
					t.Fatalf("Run returned %v, want %v and no report", err, tc.want)
				}
			default:
				var jf *JobFailedError
				if !errors.As(err, &jf) || jf.Status.Error != tc.errMsg {
					t.Fatalf("Run returned %v, want *JobFailedError carrying %q", err, tc.errMsg)
				}
			}
			if n := f.submits.Load(); n != 1 {
				t.Fatalf("%d submits, want 1", n)
			}
		})
	}
}

// TestRunAbsorbsQueueFull: Run retries a 429 by the server's hint, as
// SubmitRetry does, and then settles in the one accepted exchange.
func TestRunAbsorbsQueueFull(t *testing.T) {
	f := newFakeSimd()
	f.waits = true
	f.retryAfter = "0" // the client substitutes its one-second floor
	f.reject429.Store(1)
	f.onSubmit = func(j *fakeJob) {
		j.report = []byte(`{}`)
		j.settle(StateDone, "")
	}
	c := start(t, f)
	st, report, err := c.Run(context.Background(), spec)
	if err != nil || st.State != StateDone || string(report) != `{}` {
		t.Fatalf("Run after a 429: %+v report %q err %v", st, report, err)
	}
	if n := f.submits.Load(); n != 2 {
		t.Fatalf("%d submits, want the refusal and the accepted one", n)
	}
}

// TestRunLocalContextEndsWait: a context that ends while the daemon is
// holding the request surfaces as the context's error.
func TestRunLocalContextEndsWait(t *testing.T) {
	f := newFakeSimd()
	f.waits = true // and no onSubmit: the job never settles
	c := start(t, f)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, _, err := c.Run(ctx, spec); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run under an expiring context returned %v", err)
	}
}
