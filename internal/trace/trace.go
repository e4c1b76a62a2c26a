// Package trace records simulation runs for post-mortem analysis, in the
// spirit of ROSS's event tracing: a compact binary log that can be
// written during a run and read back for analysis.
//
// A stream starts with a 6-byte header (magic 0xCA "GVT" plus a
// little-endian uint16 format version) followed by self-describing
// records: committed events, GVT rounds, rollback episodes, MPI
// sends/receives of the event/ack data plane, worker phase transitions,
// faults and the LP-migration records emitted by the load balancer. The
// Reader accepts exactly the version this package writes and rejects
// anything else — other versions, or a file that is not a trace —
// instead of decoding garbage.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Header layout.
var magic = [4]byte{0xCA, 'G', 'V', 'T'}

// Version is the format version this package writes.
const Version = 2

const headerLen = 6

// Record types.
const (
	recCommit   = uint8(1) // one committed event
	recRound    = uint8(2) // one completed GVT round
	recRollback = uint8(3) // one rollback episode
	recMPISend  = uint8(4) // one MPI data-plane send
	recMPIRecv  = uint8(5) // one MPI data-plane receive
	recPhase    = uint8(6) // one worker phase transition
	recFault    = uint8(7) // one injected/observed fault

	recMigration = uint8(8) // one LP migration between nodes
)

// Fault kinds carried by Fault records. 0-3 mirror the fabric's injected
// fault kinds; the watchdog kinds record the GVT liveness machinery
// reacting to losses.
const (
	FaultDrop             = uint8(iota) // packet lost on the wire
	FaultDuplicate                      // packet delivered twice
	FaultJitter                         // packet delayed beyond nominal
	FaultWindowDrop                     // packet lost in a partition window
	FaultWatchdogRestart                // GVT watchdog re-sent a lost token
	FaultWatchdogFallback               // GVT watchdog forced a synchronous round
	NumFaultKinds
)

// FaultName returns the human-readable fault kind name.
func FaultName(k uint8) string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultDuplicate:
		return "duplicate"
	case FaultJitter:
		return "jitter"
	case FaultWindowDrop:
		return "window-drop"
	case FaultWatchdogRestart:
		return "watchdog-restart"
	case FaultWatchdogFallback:
		return "watchdog-fallback"
	}
	return fmt.Sprintf("fault(%d)", k)
}

// Worker phases carried by Phase records.
const (
	PhaseProcessing = uint8(iota) // draining mailboxes / processing events
	PhaseIdle                     // an empty main-loop pass
	PhaseBarrier                  // parked at a GVT barrier
	PhaseGVT                      // inside GVT protocol steps
	NumPhases
)

// PhaseName returns the human-readable phase name.
func PhaseName(p uint8) string {
	switch p {
	case PhaseProcessing:
		return "processing"
	case PhaseIdle:
		return "idle"
	case PhaseBarrier:
		return "barrier"
	case PhaseGVT:
		return "gvt"
	}
	return fmt.Sprintf("phase(%d)", p)
}

// Commit is one committed event.
type Commit struct {
	LP  uint32
	T   float64 // virtual timestamp of the event
	Src uint32
	Seq uint64
}

// Round is one completed GVT round.
type Round struct {
	Round      int64
	GVT        float64
	AtNanos    int64 // simulated wall-clock of completion
	Sync       bool
	Efficiency float64
}

// Rollback is one rollback episode at a worker: a straggler or
// anti-message forced Depth processed events spanning [From, To] in
// virtual time to be undone.
type Rollback struct {
	Worker  uint32
	LP      uint32  // LP that was rolled back
	Anti    bool    // caused by an anti-message (false: straggler)
	Depth   uint32  // processed events undone
	From    float64 // earliest undone stamp (the rollback target)
	To      float64 // latest undone stamp
	AtNanos int64
}

// MPISend is one message of the MPI data plane (events and Samadi acks;
// GVT control tokens are not recorded) leaving a node.
type MPISend struct {
	Src, Dst uint16 // node ids
	Bytes    uint32
	// QueueDepth is the node outbox backlog left behind when the comm
	// role took this message — the MPI-thread lag signal of paper §4.
	QueueDepth uint32
	AtNanos    int64
}

// MPIRecv is one data-plane message consumed from MPI at a node.
type MPIRecv struct {
	Src, Dst uint16 // node ids
	Bytes    uint32
	// QueueDepth is the destination worker's mailbox depth right after
	// this message was deposited.
	QueueDepth uint32
	AtNanos    int64
}

// Phase is one worker phase transition: the worker entered Phase at
// AtNanos and stays there until its next Phase record.
type Phase struct {
	Worker  uint32
	Phase   uint8
	AtNanos int64
}

// Fault is one injected fabric fault or watchdog reaction. For wire
// faults Src/Dst are node ids; for watchdog records Src is the master
// node and Dst is unused.
type Fault struct {
	Kind     uint8
	Src, Dst uint16
	AtNanos  int64
	// DelayNanos is the extra latency added (jitter/degradation kinds).
	DelayNanos int64
}

// Migration is one LP moved between nodes by the load balancer at a GVT
// commit point. Events counts the pending (uncommitted-future) events
// shipped along with the LP's state.
type Migration struct {
	LP      uint32
	SrcNode uint16
	DstNode uint16
	Round   int64 // GVT round whose commit point triggered the move
	Events  uint32
	AtNanos int64
}

// migrationWire is the record body size (after the type byte).
const migrationWire = 28

// Writer streams current-version records to an io.Writer. The header is
// written on the first record (or Flush), so an abandoned Writer leaves
// no bytes.
type Writer struct {
	w        *bufio.Writer
	err      error
	prefaced bool
	// scratch is the record-encoding buffer. A stack array would escape
	// (bufio's underlying io.Writer leaks its argument), costing one
	// heap allocation per record on the commit fast path; encoding into
	// the Writer instead makes record emission allocation-free. Writers
	// are driven by the cooperative simulation kernel (one goroutine at
	// a time), so a single buffer is safe.
	scratch [64]byte
	// Counts of written records, for quick sanity checks.
	Commits    int64
	Rounds     int64
	Rollbacks  int64
	MPISends   int64
	MPIRecvs   int64
	Phases     int64
	Faults     int64
	Migrations int64
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

func (t *Writer) put(b []byte) {
	if t.err != nil {
		return
	}
	if !t.prefaced {
		t.prefaced = true
		var h [headerLen]byte
		copy(h[:], magic[:])
		binary.LittleEndian.PutUint16(h[4:], Version)
		if _, t.err = t.w.Write(h[:]); t.err != nil {
			return
		}
	}
	_, t.err = t.w.Write(b)
}

// Commit appends a committed-event record.
func (t *Writer) Commit(c Commit) {
	b := &t.scratch
	b[0] = recCommit
	binary.LittleEndian.PutUint32(b[1:], c.LP)
	binary.LittleEndian.PutUint64(b[5:], math.Float64bits(c.T))
	binary.LittleEndian.PutUint32(b[13:], c.Src)
	binary.LittleEndian.PutUint64(b[17:], c.Seq)
	t.put(b[:25])
	t.Commits++
}

// Round appends a GVT-round record.
func (t *Writer) Round(r Round) {
	b := &t.scratch
	b[0] = recRound
	binary.LittleEndian.PutUint64(b[1:], uint64(r.Round))
	binary.LittleEndian.PutUint64(b[9:], math.Float64bits(r.GVT))
	binary.LittleEndian.PutUint64(b[17:], uint64(r.AtNanos))
	b[25] = 0 // scratch is reused: conditional bytes need both branches
	if r.Sync {
		b[25] = 1
	}
	binary.LittleEndian.PutUint64(b[26:], math.Float64bits(r.Efficiency))
	t.put(b[:34])
	t.Rounds++
}

// Rollback appends a rollback-episode record.
func (t *Writer) Rollback(r Rollback) {
	b := &t.scratch
	b[0] = recRollback
	binary.LittleEndian.PutUint32(b[1:], r.Worker)
	binary.LittleEndian.PutUint32(b[5:], r.LP)
	b[9] = 0 // scratch is reused: conditional bytes need both branches
	if r.Anti {
		b[9] = 1
	}
	binary.LittleEndian.PutUint32(b[10:], r.Depth)
	binary.LittleEndian.PutUint64(b[14:], math.Float64bits(r.From))
	binary.LittleEndian.PutUint64(b[22:], math.Float64bits(r.To))
	binary.LittleEndian.PutUint64(b[30:], uint64(r.AtNanos))
	t.put(b[:38])
	t.Rollbacks++
}

func putMPI(b *[64]byte, kind uint8, src, dst uint16, bytes, depth uint32, at int64) {
	b[0] = kind
	binary.LittleEndian.PutUint16(b[1:], src)
	binary.LittleEndian.PutUint16(b[3:], dst)
	binary.LittleEndian.PutUint32(b[5:], bytes)
	binary.LittleEndian.PutUint32(b[9:], depth)
	binary.LittleEndian.PutUint64(b[13:], uint64(at))
}

// MPISend appends a data-plane send record.
func (t *Writer) MPISend(m MPISend) {
	putMPI(&t.scratch, recMPISend, m.Src, m.Dst, m.Bytes, m.QueueDepth, m.AtNanos)
	t.put(t.scratch[:21])
	t.MPISends++
}

// MPIRecv appends a data-plane receive record.
func (t *Writer) MPIRecv(m MPIRecv) {
	putMPI(&t.scratch, recMPIRecv, m.Src, m.Dst, m.Bytes, m.QueueDepth, m.AtNanos)
	t.put(t.scratch[:21])
	t.MPIRecvs++
}

// Phase appends a worker phase-transition record.
func (t *Writer) Phase(p Phase) {
	b := &t.scratch
	b[0] = recPhase
	binary.LittleEndian.PutUint32(b[1:], p.Worker)
	b[5] = p.Phase
	binary.LittleEndian.PutUint64(b[6:], uint64(p.AtNanos))
	t.put(b[:14])
	t.Phases++
}

// Fault appends a fault record.
func (t *Writer) Fault(f Fault) {
	b := &t.scratch
	b[0] = recFault
	b[1] = f.Kind
	binary.LittleEndian.PutUint16(b[2:], f.Src)
	binary.LittleEndian.PutUint16(b[4:], f.Dst)
	binary.LittleEndian.PutUint64(b[6:], uint64(f.AtNanos))
	binary.LittleEndian.PutUint64(b[14:], uint64(f.DelayNanos))
	t.put(b[:22])
	t.Faults++
}

// Migration appends an LP-migration record.
func (t *Writer) Migration(m Migration) {
	b := &t.scratch
	b[0] = recMigration
	binary.LittleEndian.PutUint32(b[1:], m.LP)
	binary.LittleEndian.PutUint16(b[5:], m.SrcNode)
	binary.LittleEndian.PutUint16(b[7:], m.DstNode)
	binary.LittleEndian.PutUint64(b[9:], uint64(m.Round))
	binary.LittleEndian.PutUint32(b[17:], m.Events)
	binary.LittleEndian.PutUint64(b[21:], uint64(m.AtNanos))
	t.put(b[:1+migrationWire])
	t.Migrations++
}

// Flush drains buffered records and returns any accumulated write error.
func (t *Writer) Flush() error {
	if t.err != nil {
		return t.err
	}
	if !t.prefaced {
		t.put(nil) // header-only stream
		if t.err != nil {
			return t.err
		}
	}
	return t.w.Flush()
}

// Reader iterates over a trace stream.
type Reader struct {
	r       *bufio.Reader
	off     int64
	version int
	started bool
	err     error
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Offset returns the number of bytes consumed so far; after an error it
// points at the failure.
func (t *Reader) Offset() int64 { return t.off }

// Version returns the stream's format version, reading the header on
// first use. An empty stream reads as the current version.
func (t *Reader) Version() (int, error) {
	if err := t.start(); err != nil && err != io.EOF {
		return 0, err
	}
	return t.version, nil
}

// start consumes and checks the header. It returns io.EOF only for a
// completely empty stream.
func (t *Reader) start() error {
	if t.started {
		return t.err
	}
	t.started = true
	t.version = Version
	var h [headerLen]byte
	if _, err := io.ReadFull(t.r, h[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		t.err = fmt.Errorf("trace: truncated header at offset %d: %w", t.off, err)
		return t.err
	}
	if [4]byte(h[:4]) != magic {
		t.err = fmt.Errorf("trace: bad magic %x at offset 0 (not a trace file)", h[:4])
		return t.err
	}
	t.off = headerLen
	if v := int(binary.LittleEndian.Uint16(h[4:])); v != Version {
		t.err = fmt.Errorf("trace: unknown format version %d (this reader understands v%d); refusing to decode", v, Version)
		return t.err
	}
	return nil
}

func (t *Reader) readFull(b []byte, what string) error {
	n, err := io.ReadFull(t.r, b)
	t.off += int64(n)
	if err != nil {
		return fmt.Errorf("trace: truncated %s record at offset %d: %w", what, t.off, err)
	}
	return nil
}

// Next returns the next record as one of Commit, Round, Rollback,
// MPISend, MPIRecv or Phase; io.EOF ends the stream.
func (t *Reader) Next() (any, error) {
	if err := t.start(); err != nil {
		return nil, err
	}
	kind, err := t.r.ReadByte()
	if err != nil {
		if err != io.EOF {
			err = fmt.Errorf("trace: read at offset %d: %w", t.off, err)
			t.err = err
		}
		return nil, err
	}
	t.off++
	switch kind {
	case recCommit:
		var b [24]byte
		if err := t.readFull(b[:], "commit"); err != nil {
			t.err = err
			return nil, err
		}
		return Commit{
			LP:  binary.LittleEndian.Uint32(b[0:]),
			T:   math.Float64frombits(binary.LittleEndian.Uint64(b[4:])),
			Src: binary.LittleEndian.Uint32(b[12:]),
			Seq: binary.LittleEndian.Uint64(b[16:]),
		}, nil
	case recRound:
		var b [33]byte
		if err := t.readFull(b[:], "round"); err != nil {
			t.err = err
			return nil, err
		}
		return Round{
			Round:      int64(binary.LittleEndian.Uint64(b[0:])),
			GVT:        math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
			AtNanos:    int64(binary.LittleEndian.Uint64(b[16:])),
			Sync:       b[24] != 0,
			Efficiency: math.Float64frombits(binary.LittleEndian.Uint64(b[25:])),
		}, nil
	case recRollback:
		var b [37]byte
		if err := t.readFull(b[:], "rollback"); err != nil {
			t.err = err
			return nil, err
		}
		return Rollback{
			Worker:  binary.LittleEndian.Uint32(b[0:]),
			LP:      binary.LittleEndian.Uint32(b[4:]),
			Anti:    b[8] != 0,
			Depth:   binary.LittleEndian.Uint32(b[9:]),
			From:    math.Float64frombits(binary.LittleEndian.Uint64(b[13:])),
			To:      math.Float64frombits(binary.LittleEndian.Uint64(b[21:])),
			AtNanos: int64(binary.LittleEndian.Uint64(b[29:])),
		}, nil
	case recMPISend, recMPIRecv:
		var b [20]byte
		what := "mpi-send"
		if kind == recMPIRecv {
			what = "mpi-recv"
		}
		if err := t.readFull(b[:], what); err != nil {
			t.err = err
			return nil, err
		}
		src := binary.LittleEndian.Uint16(b[0:])
		dst := binary.LittleEndian.Uint16(b[2:])
		bytes := binary.LittleEndian.Uint32(b[4:])
		depth := binary.LittleEndian.Uint32(b[8:])
		at := int64(binary.LittleEndian.Uint64(b[12:]))
		if kind == recMPISend {
			return MPISend{Src: src, Dst: dst, Bytes: bytes, QueueDepth: depth, AtNanos: at}, nil
		}
		return MPIRecv{Src: src, Dst: dst, Bytes: bytes, QueueDepth: depth, AtNanos: at}, nil
	case recPhase:
		var b [13]byte
		if err := t.readFull(b[:], "phase"); err != nil {
			t.err = err
			return nil, err
		}
		return Phase{
			Worker:  binary.LittleEndian.Uint32(b[0:]),
			Phase:   b[4],
			AtNanos: int64(binary.LittleEndian.Uint64(b[5:])),
		}, nil
	case recFault:
		var b [21]byte
		if err := t.readFull(b[:], "fault"); err != nil {
			t.err = err
			return nil, err
		}
		return Fault{
			Kind:       b[0],
			Src:        binary.LittleEndian.Uint16(b[1:]),
			Dst:        binary.LittleEndian.Uint16(b[3:]),
			AtNanos:    int64(binary.LittleEndian.Uint64(b[5:])),
			DelayNanos: int64(binary.LittleEndian.Uint64(b[13:])),
		}, nil
	case recMigration:
		var b [migrationWire]byte
		if err := t.readFull(b[:], "migration"); err != nil {
			t.err = err
			return nil, err
		}
		return Migration{
			LP:      binary.LittleEndian.Uint32(b[0:]),
			SrcNode: binary.LittleEndian.Uint16(b[4:]),
			DstNode: binary.LittleEndian.Uint16(b[6:]),
			Round:   int64(binary.LittleEndian.Uint64(b[8:])),
			Events:  binary.LittleEndian.Uint32(b[16:]),
			AtNanos: int64(binary.LittleEndian.Uint64(b[20:])),
		}, nil
	default:
		err := fmt.Errorf("trace: unknown record type %d at offset %d", kind, t.off-1)
		t.err = err
		return nil, err
	}
}

// Visitor receives decoded records by type; nil callbacks skip that
// type. It replaces type-switching over Next's any-typed result.
type Visitor struct {
	Commit    func(Commit)
	Round     func(Round)
	Rollback  func(Rollback)
	MPISend   func(MPISend)
	MPIRecv   func(MPIRecv)
	Phase     func(Phase)
	Fault     func(Fault)
	Migration func(Migration)
}

// ForEach decodes the whole stream, dispatching each record to the
// matching callback. It returns nil on clean EOF and the decode error
// (with byte offset) otherwise.
func (t *Reader) ForEach(v Visitor) error {
	for {
		rec, err := t.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		switch r := rec.(type) {
		case Commit:
			if v.Commit != nil {
				v.Commit(r)
			}
		case Round:
			if v.Round != nil {
				v.Round(r)
			}
		case Rollback:
			if v.Rollback != nil {
				v.Rollback(r)
			}
		case MPISend:
			if v.MPISend != nil {
				v.MPISend(r)
			}
		case MPIRecv:
			if v.MPIRecv != nil {
				v.MPIRecv(r)
			}
		case Phase:
			if v.Phase != nil {
				v.Phase(r)
			}
		case Fault:
			if v.Fault != nil {
				v.Fault(r)
			}
		case Migration:
			if v.Migration != nil {
				v.Migration(r)
			}
		}
	}
}

// Summary aggregates a trace stream.
type Summary struct {
	Version    int
	Commits    int64
	Rounds     int64
	SyncRounds int64
	FinalGVT   float64
	MaxT       float64
	PerLP      map[uint32]int64
	// Rollback, MPI, phase and fault records.
	Rollbacks        int64 // rollback episodes
	RolledBack       int64 // events undone across all episodes
	MPISends         int64
	MPISendBytes     int64
	MPIRecvs         int64
	PhaseRecords     int64
	MaxRollbackDepth int64
	Faults           int64
	FaultsByKind     map[uint8]int64
	// Migration records.
	Migrations     int64 // LP moves recorded by the balancer
	MigratedEvents int64 // pending events shipped along with moves
}

// Summarize reads a whole stream into a Summary.
func Summarize(r io.Reader) (*Summary, error) {
	tr := NewReader(r)
	s := &Summary{PerLP: make(map[uint32]int64)}
	err := tr.ForEach(Visitor{
		Commit: func(c Commit) {
			s.Commits++
			s.PerLP[c.LP]++
			if c.T > s.MaxT {
				s.MaxT = c.T
			}
		},
		Round: func(r Round) {
			s.Rounds++
			if r.Sync {
				s.SyncRounds++
			}
			s.FinalGVT = r.GVT
		},
		Rollback: func(r Rollback) {
			s.Rollbacks++
			s.RolledBack += int64(r.Depth)
			if int64(r.Depth) > s.MaxRollbackDepth {
				s.MaxRollbackDepth = int64(r.Depth)
			}
		},
		MPISend: func(m MPISend) {
			s.MPISends++
			s.MPISendBytes += int64(m.Bytes)
		},
		MPIRecv: func(MPIRecv) { s.MPIRecvs++ },
		Phase:   func(Phase) { s.PhaseRecords++ },
		Fault: func(f Fault) {
			s.Faults++
			if s.FaultsByKind == nil {
				s.FaultsByKind = make(map[uint8]int64)
			}
			s.FaultsByKind[f.Kind]++
		},
		Migration: func(m Migration) {
			s.Migrations++
			s.MigratedEvents += int64(m.Events)
		},
	})
	if err != nil {
		return nil, err
	}
	s.Version, _ = tr.Version()
	return s, nil
}
