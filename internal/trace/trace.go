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
// instead of decoding garbage. Analyze turns a whole stream into the
// analyses cmd/tracestat prints.
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

// Fault kinds carried by Fault records, mirroring the fabric's injected
// fault kinds. Older traces may carry kinds 4 and 5 (GVT liveness records
// of an earlier engine); they decode, and the analysis counts them in its
// total only.
const (
	FaultDrop       = uint8(iota) // packet lost on the wire
	FaultDuplicate                // packet delivered twice
	FaultJitter                   // packet delayed beyond nominal
	FaultWindowDrop               // packet lost in a partition window
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
	}
	return fmt.Sprintf("fault(%d)", k)
}

// Worker phases carried by Phase records.
const (
	PhaseProcessing = uint8(iota) // draining mailboxes / processing events
	PhaseIdle                     // an empty main-loop pass
	PhaseBarrier                  // parked at a GVT barrier
	PhaseGVT                      // inside GVT protocol steps
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

// Round is one completed GVT round; the JSON keys are those of the
// analysis's efficiency timeline.
type Round struct {
	Round      int64   `json:"round"`
	GVT        float64 `json:"gvt"`
	AtNanos    int64   `json:"at_ns"` // simulated wall-clock of completion
	Sync       bool    `json:"sync"`
	Efficiency float64 `json:"efficiency"`
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

// Fault is one injected fabric fault; Src/Dst are node ids.
type Fault struct {
	Kind     uint8
	Src, Dst uint16
	AtNanos  int64
	// DelayNanos is the extra latency added (jitter/degradation kinds).
	DelayNanos int64
}

// Migration is one LP moved between nodes by the load balancer at a GVT
// commit point. Events counts the pending (uncommitted-future) events
// shipped along with the LP's state. The JSON keys are those of the
// analysis's list of moves.
type Migration struct {
	LP      uint32 `json:"lp"`
	SrcNode uint16 `json:"src"`
	DstNode uint16 `json:"dst"`
	Round   int64  `json:"round"` // GVT round whose commit point triggered the move
	Events  uint32 `json:"events"`
	AtNanos int64  `json:"at_ns"`
}

// wire is each record type's name and body length (the bytes after the
// type byte), indexed by type; both Writer and Reader size records from
// it. An unknown type has length 0.
var wire = [...]struct {
	name string
	body int
}{
	recCommit:    {"commit", 24},
	recRound:     {"round", 33},
	recRollback:  {"rollback", 37},
	recMPISend:   {"mpi-send", 20},
	recMPIRecv:   {"mpi-recv", 20},
	recPhase:     {"phase", 13},
	recFault:     {"fault", 21},
	recMigration: {"migration", 28},
}

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

// preface writes the header ahead of the first record.
func (t *Writer) preface() {
	if t.prefaced || t.err != nil {
		return
	}
	t.prefaced = true
	var h [headerLen]byte
	copy(h[:], magic[:])
	binary.LittleEndian.PutUint16(h[4:], Version)
	_, t.err = t.w.Write(h[:])
}

// body starts a record of the given type in the scratch buffer and
// returns its body, to be filled at the offsets decode reads.
func (t *Writer) body(kind uint8) []byte {
	t.scratch[0] = kind
	return t.scratch[1 : 1+wire[kind].body]
}

// put writes the record whose body b returned.
func (t *Writer) put(b []byte) {
	if !t.prefaced {
		t.preface()
	}
	if t.err == nil {
		_, t.err = t.w.Write(t.scratch[:1+len(b)])
	}
}

// Commit appends a committed-event record.
func (t *Writer) Commit(c Commit) {
	b := t.body(recCommit)
	binary.LittleEndian.PutUint32(b[0:], c.LP)
	binary.LittleEndian.PutUint64(b[4:], math.Float64bits(c.T))
	binary.LittleEndian.PutUint32(b[12:], c.Src)
	binary.LittleEndian.PutUint64(b[16:], c.Seq)
	t.put(b)
	t.Commits++
}

// Round appends a GVT-round record.
func (t *Writer) Round(r Round) {
	b := t.body(recRound)
	binary.LittleEndian.PutUint64(b[0:], uint64(r.Round))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.GVT))
	binary.LittleEndian.PutUint64(b[16:], uint64(r.AtNanos))
	b[24] = 0 // scratch is reused: conditional bytes need both branches
	if r.Sync {
		b[24] = 1
	}
	binary.LittleEndian.PutUint64(b[25:], math.Float64bits(r.Efficiency))
	t.put(b)
	t.Rounds++
}

// Rollback appends a rollback-episode record.
func (t *Writer) Rollback(r Rollback) {
	b := t.body(recRollback)
	binary.LittleEndian.PutUint32(b[0:], r.Worker)
	binary.LittleEndian.PutUint32(b[4:], r.LP)
	b[8] = 0 // scratch is reused: conditional bytes need both branches
	if r.Anti {
		b[8] = 1
	}
	binary.LittleEndian.PutUint32(b[9:], r.Depth)
	binary.LittleEndian.PutUint64(b[13:], math.Float64bits(r.From))
	binary.LittleEndian.PutUint64(b[21:], math.Float64bits(r.To))
	binary.LittleEndian.PutUint64(b[29:], uint64(r.AtNanos))
	t.put(b)
	t.Rollbacks++
}

func putMPI(b []byte, src, dst uint16, bytes, depth uint32, at int64) {
	binary.LittleEndian.PutUint16(b[0:], src)
	binary.LittleEndian.PutUint16(b[2:], dst)
	binary.LittleEndian.PutUint32(b[4:], bytes)
	binary.LittleEndian.PutUint32(b[8:], depth)
	binary.LittleEndian.PutUint64(b[12:], uint64(at))
}

// MPISend appends a data-plane send record.
func (t *Writer) MPISend(m MPISend) {
	b := t.body(recMPISend)
	putMPI(b, m.Src, m.Dst, m.Bytes, m.QueueDepth, m.AtNanos)
	t.put(b)
	t.MPISends++
}

// MPIRecv appends a data-plane receive record.
func (t *Writer) MPIRecv(m MPIRecv) {
	b := t.body(recMPIRecv)
	putMPI(b, m.Src, m.Dst, m.Bytes, m.QueueDepth, m.AtNanos)
	t.put(b)
	t.MPIRecvs++
}

// Phase appends a worker phase-transition record.
func (t *Writer) Phase(p Phase) {
	b := t.body(recPhase)
	binary.LittleEndian.PutUint32(b[0:], p.Worker)
	b[4] = p.Phase
	binary.LittleEndian.PutUint64(b[5:], uint64(p.AtNanos))
	t.put(b)
	t.Phases++
}

// Fault appends a fault record.
func (t *Writer) Fault(f Fault) {
	b := t.body(recFault)
	b[0] = f.Kind
	binary.LittleEndian.PutUint16(b[1:], f.Src)
	binary.LittleEndian.PutUint16(b[3:], f.Dst)
	binary.LittleEndian.PutUint64(b[5:], uint64(f.AtNanos))
	binary.LittleEndian.PutUint64(b[13:], uint64(f.DelayNanos))
	t.put(b)
	t.Faults++
}

// Migration appends an LP-migration record.
func (t *Writer) Migration(m Migration) {
	b := t.body(recMigration)
	binary.LittleEndian.PutUint32(b[0:], m.LP)
	binary.LittleEndian.PutUint16(b[4:], m.SrcNode)
	binary.LittleEndian.PutUint16(b[6:], m.DstNode)
	binary.LittleEndian.PutUint64(b[8:], uint64(m.Round))
	binary.LittleEndian.PutUint32(b[16:], m.Events)
	binary.LittleEndian.PutUint64(b[20:], uint64(m.AtNanos))
	t.put(b)
	t.Migrations++
}

// Flush drains buffered records and returns any accumulated write error.
// A Writer that wrote no record writes the header alone.
func (t *Writer) Flush() error {
	t.preface()
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Reader iterates over a trace stream.
type Reader struct {
	r       *bufio.Reader
	off     int64
	format  int // the header's version
	started bool
	err     error
	buf     [64]byte // the record body being decoded
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

// version returns the stream's format version, reading the header on
// first use. An empty stream reads as the current version.
func (t *Reader) version() (int, error) {
	if err := t.start(); err != nil && err != io.EOF {
		return 0, err
	}
	return t.format, nil
}

// start consumes and checks the header. It returns io.EOF only for a
// completely empty stream.
func (t *Reader) start() error {
	if t.started {
		return t.err
	}
	t.started = true
	t.format = Version
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

// read reads the next record's type and body; io.EOF ends the stream. The
// body is the Reader's buffer, valid until the next read.
func (t *Reader) read() (uint8, []byte, error) {
	if err := t.start(); err != nil {
		return 0, nil, err
	}
	kind, err := t.r.ReadByte()
	if err == io.EOF {
		return 0, nil, err
	}
	if err != nil {
		t.err = fmt.Errorf("trace: read at offset %d: %w", t.off, err)
		return 0, nil, t.err
	}
	t.off++
	if int(kind) >= len(wire) || wire[kind].body == 0 {
		t.err = fmt.Errorf("trace: unknown record type %d at offset %d", kind, t.off-1)
		return 0, nil, t.err
	}
	b := t.buf[:wire[kind].body]
	n, err := io.ReadFull(t.r, b)
	t.off += int64(n)
	if err != nil {
		t.err = fmt.Errorf("trace: truncated %s record at offset %d: %w", wire[kind].name, t.off, err)
		return 0, nil, t.err
	}
	return kind, b, nil
}

// Visitor receives decoded records by type; nil callbacks skip that
// type.
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
		kind, b, err := t.read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		v.visit(kind, b)
	}
}

// visit decodes the body b of a record of a known type and hands it to its
// callback.
func (v *Visitor) visit(kind uint8, b []byte) {
	le := binary.LittleEndian
	switch kind {
	case recCommit:
		call(v.Commit, Commit{
			LP:  le.Uint32(b[0:]),
			T:   math.Float64frombits(le.Uint64(b[4:])),
			Src: le.Uint32(b[12:]),
			Seq: le.Uint64(b[16:]),
		})
	case recRound:
		call(v.Round, Round{
			Round:      int64(le.Uint64(b[0:])),
			GVT:        math.Float64frombits(le.Uint64(b[8:])),
			AtNanos:    int64(le.Uint64(b[16:])),
			Sync:       b[24] != 0,
			Efficiency: math.Float64frombits(le.Uint64(b[25:])),
		})
	case recRollback:
		call(v.Rollback, Rollback{
			Worker:  le.Uint32(b[0:]),
			LP:      le.Uint32(b[4:]),
			Anti:    b[8] != 0,
			Depth:   le.Uint32(b[9:]),
			From:    math.Float64frombits(le.Uint64(b[13:])),
			To:      math.Float64frombits(le.Uint64(b[21:])),
			AtNanos: int64(le.Uint64(b[29:])),
		})
	case recMPISend, recMPIRecv:
		m := MPISend{
			Src:        le.Uint16(b[0:]),
			Dst:        le.Uint16(b[2:]),
			Bytes:      le.Uint32(b[4:]),
			QueueDepth: le.Uint32(b[8:]),
			AtNanos:    int64(le.Uint64(b[12:])),
		}
		if kind == recMPISend {
			call(v.MPISend, m)
		} else {
			call(v.MPIRecv, MPIRecv(m))
		}
	case recPhase:
		call(v.Phase, Phase{Worker: le.Uint32(b[0:]), Phase: b[4], AtNanos: int64(le.Uint64(b[5:]))})
	case recFault:
		call(v.Fault, Fault{
			Kind:       b[0],
			Src:        le.Uint16(b[1:]),
			Dst:        le.Uint16(b[3:]),
			AtNanos:    int64(le.Uint64(b[5:])),
			DelayNanos: int64(le.Uint64(b[13:])),
		})
	case recMigration:
		call(v.Migration, Migration{
			LP:      le.Uint32(b[0:]),
			SrcNode: le.Uint16(b[4:]),
			DstNode: le.Uint16(b[6:]),
			Round:   int64(le.Uint64(b[8:])),
			Events:  le.Uint32(b[16:]),
			AtNanos: int64(le.Uint64(b[20:])),
		})
	}
}

// call hands rec to fn; a nil fn skips it.
func call[T any](fn func(T), rec T) {
	if fn != nil {
		fn(rec)
	}
}
