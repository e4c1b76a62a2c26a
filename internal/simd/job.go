package simd

import (
	"context"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/pkg/client"
)

// State is a job's lifecycle position, in the job API's own terms:
// pkg/client names the states, documents the transitions and decides
// which are terminal (client.Terminal).
type State = string

const (
	StateQueued    = client.StateQueued
	StateRunning   = client.StateRunning
	StateDone      = client.StateDone
	StateFailed    = client.StateFailed
	StateCancelled = client.StateCancelled
)

// Job is one submitted simulation. All mutable state is guarded by mu;
// the progress history is append-only, so streamers hold snapshots
// safely while the run keeps appending.
type Job struct {
	id   string
	seq  int64 // submission order
	hash string
	spec JobSpec // canonical form

	// begun is done once Submit has journaled the job's admission; it
	// waits for nothing on a job born done from the cache, which is never
	// journaled.
	begun sync.WaitGroup

	mu       sync.Mutex
	changed  chan struct{} // closed to wake waiters (notifyLocked); made by a waiter that blocks
	streams  int           // WaitEvents calls blocked on changed
	state    State
	cacheHit bool
	storeHit bool                     // the cache hit came from the persistent store
	deduped  int64                    // additional submissions coalesced onto this job
	events   []metrics.ProgressUpdate // every round so far, until retention releases it
	rounds   int64                    // rounds ever published; survives the release
	released bool                     // retention released events
	report   []byte                   // canonical report JSON, set in StateDone
	errMsg   string

	eng        cancellable // non-nil while the engine may still be cancelled
	cancelled  bool        // cancellation requested
	deadline   bool        // the wall-clock deadline fired; cancellation is a failure
	panicStack string      // recorded stack when the engine panicked

	// started and finished are set once, so snapshots point at them.
	submitted time.Time
	started   time.Time
	finished  time.Time
}

func newJob(seq int64, hash string, spec JobSpec) *Job {
	return &Job{
		id: jobID(seq), seq: seq, hash: hash, spec: spec, state: StateQueued,
		submitted: time.Now(),
	}
}

// ID returns the job's server-assigned identifier.
func (j *Job) ID() string { return j.id }

// Hash returns the spec's content address.
func (j *Job) Hash() string { return j.hash }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the failure message ("" unless StateFailed).
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

// Report returns the canonical report bytes; ok only in StateDone. The
// slice is shared and must not be modified.
func (j *Job) Report() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report, j.state == StateDone
}

// Rounds returns how many progress updates the run has emitted so far.
// The count survives history release: it reads the monotone counter, not
// the (releasable) event slice.
func (j *Job) Rounds() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return int(j.rounds)
}

// Wait blocks until the job reaches a terminal state or the context is
// done, and returns the state then.
func (j *Job) Wait(ctx context.Context) State {
	j.mu.Lock()
	defer j.mu.Unlock()
	for !client.Terminal(j.state) && ctx.Err() == nil {
		j.await(ctx)
	}
	return j.state
}

// WaitEvents blocks until progress beyond cursor exists, the job
// reaches a terminal state, or ctx is done. It returns the new events
// (which may be empty), the state observed, and whether that state is
// terminal. Callers advance cursor by len(events) between calls.
func (j *Job) WaitEvents(ctx context.Context, cursor int) ([]metrics.ProgressUpdate, State, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if len(j.events) > cursor {
			return j.events[cursor:len(j.events):len(j.events)], j.state, client.Terminal(j.state)
		}
		if client.Terminal(j.state) || ctx.Err() != nil {
			return nil, j.state, client.Terminal(j.state)
		}
		j.streams++
		j.await(ctx)
		j.streams--
	}
}

// await releases mu until the next publish or finish, or until ctx is
// done; the caller holds mu. A settled job, or one nobody waits on, never
// makes the channel.
func (j *Job) await(ctx context.Context) {
	if j.changed == nil {
		j.changed = make(chan struct{})
	}
	changed := j.changed
	j.mu.Unlock()
	select {
	case <-changed:
	case <-ctx.Done():
	}
	j.mu.Lock()
}

// notifyLocked wakes every waiter, or with progress only every stream: a
// Wait woken before the job settles would make its channel again. The
// caller holds mu.
func (j *Job) notifyLocked(progress bool) {
	if j.changed != nil && (!progress || j.streams > 0) {
		close(j.changed)
		j.changed = nil
	}
}

// publish appends one progress update and returns the one before it
// (zero for the first); the engine calls it once per GVT round via the
// metrics recorder's OnProgress hook. The one history serves /events
// replays, status and the flight recorder's tail.
func (j *Job) publish(u metrics.ProgressUpdate) (prev metrics.ProgressUpdate) {
	j.mu.Lock()
	if n := len(j.events); n > 0 {
		prev = j.events[n-1]
	}
	j.events = append(j.events, u)
	j.rounds++
	j.notifyLocked(true)
	j.mu.Unlock()
	return prev
}

// releaseHistory frees the job's event history — flight retention calls
// it when the job ages out of the recently-finished window, bounding
// service memory. Identity, state, report bytes and round counts survive;
// an /events replay after release returns only the terminal record.
func (j *Job) releaseHistory() {
	j.mu.Lock()
	j.events = nil
	j.released = true
	j.mu.Unlock()
}

// beginRunning moves queued → running unless the job was cancelled
// while waiting; it reports whether the job should execute.
func (j *Job) beginRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued || j.cancelled {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// cancellable is the slice of an engine the job lifecycle needs: both
// the optimistic and the conservative engine satisfy it.
type cancellable interface{ Cancel() }

// attachEngine exposes a constructed engine to cancellation. If a
// cancel arrived between beginRunning and construction, the engine is
// cancelled immediately (the kernel honours pre-run cancellation).
func (j *Job) attachEngine(e cancellable) {
	j.mu.Lock()
	j.eng = e
	cancelled := j.cancelled
	j.mu.Unlock()
	if cancelled {
		e.Cancel()
	}
}

// requestCancel asks the job to stop and reports whether the request
// did anything (false: already terminal). A running job gets its engine
// cancelled and settles when the kernel unwinds; deadline marks the
// cancellation as the wall-clock deadline's, which execute turns into a
// failure. A queued job is marked so that the worker skips it at pickup,
// and stays queued: settle tells the first caller to cancel it that
// ending the job — journal, then finish — is its to do.
func (j *Job) requestCancel(deadline bool) (ok, settle bool) {
	j.mu.Lock()
	if client.Terminal(j.state) {
		j.mu.Unlock()
		return false, false
	}
	first := !j.cancelled
	j.cancelled = true
	j.deadline = j.deadline || deadline
	if j.state == StateQueued {
		j.mu.Unlock()
		return true, first
	}
	eng := j.eng // may be nil pre-attach; attachEngine re-checks
	j.mu.Unlock()
	if eng != nil {
		eng.Cancel()
	}
	return true, false
}

// deadlineExceeded reports whether the wall-clock deadline fired.
func (j *Job) deadlineExceeded() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.deadline
}

// setPanicStack records the stack of a recovered engine panic for the
// job's post-mortem record.
func (j *Job) setPanicStack(stack string) {
	j.mu.Lock()
	j.panicStack = stack
	j.mu.Unlock()
}

// finish records a terminal state and wakes the waiters (see Server.settle).
func (j *Job) finish(state State, errMsg string) {
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	j.eng = nil
	j.finished = time.Now()
	j.notifyLocked(false)
	j.mu.Unlock()
}
