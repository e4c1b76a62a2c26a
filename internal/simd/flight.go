package simd

import (
	"time"

	"repro/internal/metrics"
)

// FlightRecord is the wire form of a job's flight recorder: identity,
// terminal (or current) state, and the bounded tail of the job's
// per-round event history. It answers "what was this job doing when it
// died?" without re-running the job.
type FlightRecord struct {
	ID       string `json:"id"`
	Hash     string `json:"hash"`
	State    State  `json:"state"`
	CacheHit bool   `json:"cache_hit"`
	Error    string `json:"error,omitempty"`
	// PanicStack holds the recovered engine stack when the job failed by
	// panic — the flight recorder's black-box record of the crash site.
	PanicStack string `json:"panic_stack,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	// RoundsTotal counts every GVT round the run completed; Recent holds
	// at most the newest 64 of them on /jobs/{id}/flight, and
	// RoundsDropped says how many older rounds it leaves out.
	RoundsTotal   int64 `json:"rounds_total"`
	RoundsDropped int64 `json:"rounds_dropped"`
	// Retained is false when the job aged out of flight retention and its
	// history was released to bound memory; identity and counts survive.
	Retained bool `json:"retained"`

	// GVT and Efficiency echo the most recent round (0 when none).
	GVT        float64 `json:"gvt"`
	Efficiency float64 `json:"efficiency"`

	Recent []metrics.ProgressUpdate `json:"recent,omitempty"`
}

// Flight snapshots the job's flight recorder: the newest tail rounds of
// its event history. It works in every state: a running job returns its
// live tail, a finished job its final approach, and a retention-evicted
// job its identity and counts with Retained false.
func (j *Job) Flight(tail int) FlightRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := len(j.events)
	tail = min(tail, n)
	last := j.lastRound()
	return FlightRecord{
		ID: j.id, Hash: j.hash, State: j.state, CacheHit: j.cacheHit,
		Error:         j.errMsg,
		PanicStack:    j.panicStack,
		SubmittedAt:   j.submitted,
		StartedAt:     optTime(&j.started),
		FinishedAt:    optTime(&j.finished),
		RoundsTotal:   j.rounds,
		RoundsDropped: j.rounds - int64(tail),
		Retained:      !j.released,
		GVT:           last.GVT,
		Efficiency:    last.Efficiency,
		// The history is append-only, so the tail is shared, not copied.
		Recent: j.events[n-tail : n : n],
	}
}

// lastRound returns the newest round of the history, zero before the
// first and after release; the caller holds j.mu.
func (j *Job) lastRound() metrics.ProgressUpdate {
	if n := len(j.events); n > 0 {
		return j.events[n-1]
	}
	return metrics.ProgressUpdate{}
}

// optTime is the wire form of a job's lifecycle instant: absent until it
// happens, then the job's own field, which never changes again; the
// caller holds j.mu.
func optTime(t *time.Time) *time.Time {
	if t.IsZero() {
		return nil
	}
	return t
}
