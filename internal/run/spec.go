// Package run holds the one description of a simulation run and the one
// place that turns it into an engine. A Spec says what a run is: model,
// topology, synchronization and the engine knobs its result is a pure
// function of. An Attach says what observes it in this process (trace
// writer, metrics recorder); it never changes the result. New is the only
// spec→model and spec→core.Config / conservative.Config translation in
// the tree: phold, bench, the experiment harness and the job service all
// build their engines through it.
package run

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/balance"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/models/epidemic"
	"repro/internal/models/pcs"
	"repro/internal/models/tandem"
	"repro/internal/phold"
	"repro/internal/sim"
)

// Spec is the canonical description of one simulation run: model,
// topology, GVT algorithm and the engine knobs a run is a pure function
// of. Zero values mean "default"; Canonical resolves them, so
// a spec that omits a field and a spec that states the default hash to
// the same content address.
//
// Every field is semantic: after canonicalization, two specs with equal
// fields produce byte-identical run reports, and any field change that
// survives canonicalization changes the result.
//
// Fields are declared in JSON-key order: json.Marshal of a canonical spec
// is its canonical JSON, which Address hashes as it comes.
type Spec struct {
	// Balance names the LP load-balancing policy ("", "static", "none": static).
	Balance string `json:"balance,omitempty"`
	// BatchSize is the engine's event batch (default 16), as in core.Config.
	BatchSize int `json:"batch_size,omitempty"`
	// CAThreshold is CA-GVT's efficiency threshold (default 0.80). Pinned
	// to the default for non-CA algorithms, where it is inert.
	CAThreshold float64 `json:"ca_threshold,omitempty"`
	// CheckpointInterval is the Time Warp checkpoint interval (default 1).
	CheckpointInterval int `json:"checkpoint_interval,omitempty"`
	// Comm is the MPI servicing mode: dedicated (default) | combined | shared.
	Comm string `json:"comm,omitempty"`
	// EndTime is the virtual end time (default 20).
	EndTime float64 `json:"end_time,omitempty"`
	// Engine selects the synchronization paradigm: timewarp (default) |
	// conservative. An empty Engine folds to conservative when Sync names
	// a conservative protocol, timewarp otherwise.
	Engine string `json:"engine,omitempty"`
	// Faults names a fabric fault scenario ("" or "none": perfect fabric).
	Faults string `json:"faults,omitempty"`
	// GVT selects the algorithm: barrier | mattern (default) | ca-gvt |
	// samadi ("ca" and "cagvt" are accepted aliases).
	GVT string `json:"gvt,omitempty"`
	// GVTInterval is the main-loop passes between GVT rounds (default 4).
	GVTInterval int `json:"gvt_interval,omitempty"`
	// Lookahead is the conservative safety bound; 0 means the model's
	// declared lookahead. Rejected for the timewarp engine.
	Lookahead float64 `json:"lookahead,omitempty"`
	// LPsPerWorker is the topology's LPs per worker (default 8).
	LPsPerWorker int `json:"lps_per_worker,omitempty"`
	// MaxUncommitted is the Time Warp throttle (default 8×LPsPerWorker; <0: unbounded).
	MaxUncommitted int `json:"max_uncommitted,omitempty"`
	// MixComm/MixComp are the mixed scenario's Y–X percentages (defaults
	// 15/10). Cleared unless Scenario is "mixed".
	MixComm float64 `json:"mix_comm,omitempty"`
	MixComp float64 `json:"mix_comp,omitempty"`
	// Model selects the workload: phold (default) | pcs | epidemic | tandem.
	Model string `json:"model,omitempty"`
	// Nodes is the topology's node count (default 2).
	Nodes int `json:"nodes,omitempty"`
	// Pool is accepted as on | off | debug for old specs and is inert:
	// events always recycle through the node pools, so Canonical pins every
	// mode to "on" (the way CAThreshold is pinned for non-CA algorithms).
	Pool string `json:"pool,omitempty"`
	// Queue is the pending-event queue: heap (default) | calendar.
	Queue string `json:"queue,omitempty"`
	// Scenario is the PHOLD workload shape: comp (default) | comm | mixed.
	// Cleared for non-PHOLD models (it has no meaning there).
	Scenario string `json:"scenario,omitempty"`
	// Seed is the master RNG seed; 0 means the default seed 1.
	Seed uint64 `json:"seed,omitempty"`
	// Sync is the conservative protocol: nullmsg (default; "cmb" is an
	// accepted alias) | window. Rejected for the timewarp engine.
	Sync string `json:"sync,omitempty"`
	// WatchdogMicros is the GVT liveness watchdog timeout in virtual µs
	// (0: auto — enabled only under faults).
	WatchdogMicros int64 `json:"watchdog_us,omitempty"`
	// WorkersPerNode is the topology's workers per node (default 4).
	WorkersPerNode int `json:"workers_per_node,omitempty"`
}

// maxWatchdogMicros is the largest watchdog_us whose timeout in virtual
// time, sim.Time(µs)*sim.Microsecond, does not overflow.
const maxWatchdogMicros = math.MaxInt64 / int64(sim.Microsecond)

// Canonical returns the spec in canonical form: names lowercased and
// de-aliased, defaults made explicit, fields without meaning for the
// chosen model/algorithm cleared or pinned. It is idempotent —
// Canonical(Canonical(s)) == Canonical(s) — and rejects invalid specs.
func (s Spec) Canonical() (Spec, error) {
	c := s
	norm := func(v string) string { return strings.ToLower(strings.TrimSpace(v)) }

	switch c.Model = norm(c.Model); c.Model {
	case "":
		c.Model = "phold"
	case "phold", "pcs", "epidemic", "tandem":
	default:
		return c, fmt.Errorf("run: unknown model %q (want phold | pcs | epidemic | tandem)", c.Model)
	}

	if c.Model == "phold" {
		switch c.Scenario = norm(c.Scenario); c.Scenario {
		case "":
			c.Scenario = "comp"
		case "comp", "comm", "mixed":
		default:
			return c, fmt.Errorf("run: unknown scenario %q (want comp | comm | mixed)", c.Scenario)
		}
	} else {
		c.Scenario = ""
	}
	if c.Model == "phold" && c.Scenario == "mixed" {
		if c.MixComp == 0 {
			c.MixComp = 10
		}
		if c.MixComm == 0 {
			c.MixComm = 15
		}
		if c.MixComp <= 0 || c.MixComm <= 0 || c.MixComp+c.MixComm > 100 {
			return c, fmt.Errorf("run: mixed fractions %v/%v must be positive and sum to <= 100", c.MixComp, c.MixComm)
		}
	} else {
		c.MixComp, c.MixComm = 0, 0
	}

	if c.Nodes == 0 {
		c.Nodes = 2
	}
	if c.WorkersPerNode == 0 {
		c.WorkersPerNode = 4
	}
	if c.LPsPerWorker == 0 {
		c.LPsPerWorker = 8
	}
	if err := c.Topology().Validate(); err != nil {
		return c, err
	}

	switch c.Engine = norm(c.Engine); c.Engine {
	case "":
		// Naming a conservative protocol is an implicit engine choice.
		switch norm(c.Sync) {
		case "nullmsg", "cmb", "window":
			c.Engine = "conservative"
		default:
			c.Engine = "timewarp"
		}
	case "timewarp", "conservative":
	default:
		return c, fmt.Errorf("run: unknown engine %q (want timewarp | conservative)", c.Engine)
	}
	if c.Engine == "conservative" {
		switch c.Sync = norm(c.Sync); c.Sync {
		case "", "cmb":
			c.Sync = "nullmsg"
		case "nullmsg", "window":
		default:
			return c, fmt.Errorf("run: unknown sync %q (want nullmsg | window)", c.Sync)
		}
		if c.Lookahead == 0 {
			c.Lookahead = c.defaultLookahead()
		}
		if c.Lookahead <= 0 || math.IsNaN(c.Lookahead) || math.IsInf(c.Lookahead, 0) {
			return c, fmt.Errorf("run: lookahead must be positive and finite, got %v", c.Lookahead)
		}
	} else {
		if v := norm(c.Sync); v != "" {
			return c, fmt.Errorf("run: sync %q is a conservative-engine field; set engine to conservative or drop it", v)
		}
		c.Sync = ""
		if c.Lookahead != 0 {
			return c, fmt.Errorf("run: lookahead is a conservative-engine field; set engine to conservative or drop it")
		}
	}

	if c.Engine == "timewarp" {
		switch c.GVT = norm(c.GVT); c.GVT {
		case "":
			c.GVT = "mattern"
		case "ca", "cagvt":
			c.GVT = "ca-gvt"
		case "barrier", "mattern", "ca-gvt", "samadi":
		default:
			return c, fmt.Errorf("run: unknown gvt %q (want barrier | mattern | ca-gvt | samadi)", c.GVT)
		}
	} else {
		// A conservative run has no GVT algorithm: the sync protocol is
		// the whole synchronization story. Clear it (and the GVT knobs
		// below) so specs differing only in inert fields share a hash.
		c.GVT = ""
	}
	switch c.Comm = norm(c.Comm); c.Comm {
	case "":
		c.Comm = "dedicated"
	case "dedicated", "combined", "shared":
	default:
		return c, fmt.Errorf("run: unknown comm %q (want dedicated | combined | shared)", c.Comm)
	}
	if c.Engine == "conservative" && c.Comm != "dedicated" {
		return c, fmt.Errorf("run: comm %q is not supported by the conservative engine (only dedicated)", c.Comm)
	}
	if c.Engine == "timewarp" {
		if c.GVTInterval == 0 {
			c.GVTInterval = 4
		}
		if c.GVTInterval < 2 {
			return c, fmt.Errorf("run: gvt_interval must be >= 2, got %d", c.GVTInterval)
		}
		if c.GVT == "ca-gvt" {
			if c.CAThreshold == 0 {
				c.CAThreshold = 0.80
			}
			if c.CAThreshold < 0 || c.CAThreshold > 1 {
				return c, fmt.Errorf("run: ca_threshold must be in [0,1], got %v", c.CAThreshold)
			}
		} else {
			// Inert for non-CA algorithms: pin it so it cannot split the hash.
			c.CAThreshold = 0.80
		}
	} else {
		c.GVTInterval = 0
		c.CAThreshold = 0
	}

	if c.EndTime == 0 {
		c.EndTime = 20
	}
	if c.EndTime < 0 || math.IsNaN(c.EndTime) || math.IsInf(c.EndTime, 0) {
		return c, fmt.Errorf("run: end_time must be positive and finite, got %v", c.EndTime)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}

	switch c.Queue = norm(c.Queue); c.Queue {
	case "":
		c.Queue = "heap"
	case "heap", "calendar":
	default:
		return c, fmt.Errorf("run: unknown queue %q (want heap | calendar)", c.Queue)
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.BatchSize < 0 {
		return c, fmt.Errorf("run: batch_size must be positive, got %d", c.BatchSize)
	}
	if c.Engine == "timewarp" {
		// Inert (see Spec.Pool): pin it so it cannot split the hash.
		switch c.Pool = norm(c.Pool); c.Pool {
		case "", "on", "off", "debug":
			c.Pool = "on"
		default:
			return c, fmt.Errorf("run: unknown pool %q (want on | off | debug)", c.Pool)
		}
		if c.CheckpointInterval == 0 {
			c.CheckpointInterval = 1
		}
		if c.CheckpointInterval < 0 {
			return c, fmt.Errorf("run: checkpoint_interval must be positive, got %d", c.CheckpointInterval)
		}
		if c.MaxUncommitted == 0 {
			c.MaxUncommitted = 8 * c.LPsPerWorker
		}
		if c.MaxUncommitted < 0 {
			c.MaxUncommitted = -1 // all negatives mean the same thing: unbounded
		}
	} else {
		// Event pooling, checkpoints and throttling are rollback
		// machinery; a conservative run has none. Clear them so they
		// cannot split the hash.
		c.Pool = ""
		c.CheckpointInterval = 0
		c.MaxUncommitted = 0
	}

	switch c.Faults = norm(c.Faults); c.Faults {
	case "none":
		c.Faults = ""
	default:
		if _, err := fabric.Scenario(c.Faults, c.Nodes); err != nil {
			return c, err
		}
	}
	switch c.Balance = norm(c.Balance); c.Balance {
	case "static", "none":
		c.Balance = ""
	default:
		if _, err := balance.New(c.Balance, balance.Options{}); err != nil {
			return c, err
		}
	}
	// A timeout past the largest virtual time would wrap negative, which
	// core reads as "watchdog off".
	if c.WatchdogMicros < 0 || c.WatchdogMicros > maxWatchdogMicros {
		return c, fmt.Errorf("run: watchdog_us must be in [0, %d], got %d", maxWatchdogMicros, c.WatchdogMicros)
	}
	if c.Engine == "conservative" {
		// These knobs change recovery semantics, not just performance:
		// refusing them beats silently ignoring an operator's intent.
		if c.Faults != "" {
			return c, fmt.Errorf("run: fault injection is not supported by the conservative engine")
		}
		if c.Balance != "" {
			return c, fmt.Errorf("run: load balancing is not supported by the conservative engine")
		}
		if c.WatchdogMicros != 0 {
			return c, fmt.Errorf("run: the GVT watchdog is not supported by the conservative engine")
		}
	}
	return c, nil
}

// defaultLookahead returns the model's declared lookahead for an
// already-canonical spec: the minimum virtual delay of any cross-worker
// send, as exported by each model package.
func (c Spec) defaultLookahead() float64 {
	switch c.Model {
	case "pcs":
		return pcs.Lookahead
	case "epidemic":
		return epidemic.Lookahead
	case "tandem":
		return tandem.Params{}.Lookahead()
	default: // phold
		p := phold.Params{}
		p.Defaults()
		return float64(p.Lookahead)
	}
}

// Address canonicalizes the spec and returns it with its content
// address: the SHA-256 of the canonical JSON encoding, in hex. Because
// the engine is deterministic, the hash addresses not just the spec but
// the result. A canonical spec is scalars and closed-set names declared in
// key order, so json.Marshal writes that encoding (FuzzSpecCanonical).
func (s Spec) Address() (canon Spec, hash string, err error) {
	canon, err = s.Canonical()
	if err != nil {
		return canon, "", err
	}
	raw, err := json.Marshal(canon)
	if err != nil {
		return canon, "", err
	}
	sum := sha256.Sum256(raw)
	return canon, hex.EncodeToString(sum[:]), nil
}

// Hash returns the spec's content address alone (see Address).
func (s Spec) Hash() (string, error) {
	_, hash, err := s.Address()
	return hash, err
}

// Topology returns the spec's cluster shape.
func (s Spec) Topology() cluster.Topology {
	return cluster.Topology{Nodes: s.Nodes, WorkersPerNode: s.WorkersPerNode, LPsPerWorker: s.LPsPerWorker}
}
