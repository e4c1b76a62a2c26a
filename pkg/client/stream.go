package client

import (
	"context"
	"fmt"
)

// Stream is a live progress feed for one job. Consume Updates until it
// closes, then call Wait for the terminal document and outcome error;
// Wait may also be called immediately (it drains unread updates).
//
//	s := c.Stream(ctx, id)
//	for p := range s.Updates() {
//		fmt.Printf("round %d gvt %.1f\n", p.Round, p.GVT)
//	}
//	st, err := s.Wait()
type Stream struct {
	updates chan Progress
	done    chan struct{}
	st      JobStatus
	err     error
}

// Updates returns the progress channel. It is closed when the job
// settles, the stream breaks, or the stream's context expires.
func (s *Stream) Updates() <-chan Progress { return s.updates }

// Wait blocks until the feed finishes and returns the terminal job
// document plus the outcome error (same contract as Await). It drains
// any unread updates, so it never deadlocks against the feeder: the
// feeder closes Updates before it settles the document and closes done.
func (s *Stream) Wait() (JobStatus, error) {
	for range s.updates {
	}
	<-s.done
	return s.st, s.err
}

// Stream starts following a job's progress. The returned Stream owns a
// goroutine that feeds Updates from the NDJSON events endpoint (falling
// back to status polling if the stream breaks) and settles Wait when
// the job does.
func (c *Client) Stream(ctx context.Context, id string) *Stream {
	s := &Stream{
		updates: make(chan Progress, 16),
		done:    make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		streamErr := c.streamEvents(ctx, id, func(p Progress) error {
			select {
			case s.updates <- p:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
		close(s.updates)
		if streamErr != nil && ctx.Err() != nil {
			s.err = fmt.Errorf("client: stream %s: %w", id, ctx.Err())
			return
		}
		// End record seen, or no usable stream with a live context (broken,
		// or a router that serves none): either way the poll settles the
		// terminal document, and answers ErrNotFound for a job really gone.
		s.st, s.err = c.awaitPoll(ctx, id)
	}()
	return s
}
