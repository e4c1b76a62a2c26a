package trace

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Commit(Commit{LP: 3, T: 1.5, Src: 2, Seq: 9})
	w.Round(Round{Round: 1, GVT: 1.0, AtNanos: 5000, Sync: true, Efficiency: 0.75})
	w.Commit(Commit{LP: 4, T: 2.5, Src: 3, Seq: 10})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Commits != 2 || w.Rounds != 1 {
		t.Errorf("writer counts: %d commits %d rounds", w.Commits, w.Rounds)
	}

	r := NewReader(&buf)
	rec, err := r.next()
	if err != nil {
		t.Fatal(err)
	}
	c := rec.(Commit)
	if c.LP != 3 || c.T != 1.5 || c.Src != 2 || c.Seq != 9 {
		t.Errorf("commit = %+v", c)
	}
	rec, err = r.next()
	if err != nil {
		t.Fatal(err)
	}
	rd := rec.(Round)
	if rd.Round != 1 || rd.GVT != 1.0 || rd.AtNanos != 5000 || !rd.Sync || rd.Efficiency != 0.75 {
		t.Errorf("round = %+v", rd)
	}
	if _, err := r.next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.next(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Commit(Commit{LP: 1, T: 1})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	if _, err := NewReader(bytes.NewReader(cut)).next(); err == nil {
		t.Error("truncated record did not error")
	}
}

func TestUnknownRecord(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{99})).next(); err == nil {
		t.Error("unknown record type did not error")
	}
}

func TestAnalyzeCounts(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 10; i++ {
		w.Commit(Commit{LP: uint32(i % 3), T: float64(i)})
	}
	w.Round(Round{Round: 1, GVT: 5, Sync: false})
	w.Round(Round{Round: 2, GVT: 9, Sync: true, Efficiency: 0.5})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(&buf, 20)
	if err != nil {
		t.Fatal(err)
	}
	if a.Commits != 10 || len(a.Rounds) != 2 || !a.Rounds[1].Sync || a.Rounds[0].Sync {
		t.Errorf("analysis = %+v", a)
	}
	if a.Rounds[1].GVT != 9 || a.MaxT != 9 {
		t.Errorf("final GVT=%v MaxT=%v", a.Rounds[1].GVT, a.MaxT)
	}
	if sp := a.SwitchPoints; len(sp) != 1 || sp[0].Round != 2 || sp[0].To != "sync" {
		t.Errorf("switch points = %+v", sp)
	}
	if lp := a.PerLP; lp == nil || lp.LPs != 3 || lp.Min != 3 || lp.Max != 4 {
		t.Errorf("per-LP spread = %+v", lp)
	}
}

// Property: any sequence of records round-trips.
func TestRoundTripProperty(t *testing.T) {
	prop := func(lps []uint32, ts []float64, gvts []float64) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		var want []any
		n := len(lps)
		if len(ts) < n {
			n = len(ts)
		}
		for i := 0; i < n; i++ {
			c := Commit{LP: lps[i], T: ts[i], Src: lps[i] + 1, Seq: uint64(i)}
			w.Commit(c)
			want = append(want, c)
		}
		for i, g := range gvts {
			r := Round{Round: int64(i), GVT: g, Sync: i%2 == 0, Efficiency: 0.5}
			w.Round(r)
			want = append(want, r)
		}
		if w.Flush() != nil {
			return false
		}
		r := NewReader(&buf)
		for _, exp := range want {
			got, err := r.next()
			if err != nil || got != exp {
				return false
			}
		}
		_, err := r.next()
		return err == io.EOF
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRoundTripV1Records(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rb := Rollback{Worker: 7, LP: 42, Anti: true, Depth: 13, From: 1.25, To: 9.5, AtNanos: 777}
	ms := MPISend{Src: 1, Dst: 2, Bytes: 96, QueueDepth: 5, AtNanos: 100}
	mr := MPIRecv{Src: 2, Dst: 1, Bytes: 96, QueueDepth: 3, AtNanos: 200}
	ph := Phase{Worker: 3, Phase: PhaseBarrier, AtNanos: 300}
	w.Rollback(rb)
	w.MPISend(ms)
	w.MPIRecv(mr)
	w.Phase(ph)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Rollbacks != 1 || w.MPISends != 1 || w.MPIRecvs != 1 || w.Phases != 1 {
		t.Errorf("writer counts: %d/%d/%d/%d", w.Rollbacks, w.MPISends, w.MPIRecvs, w.Phases)
	}
	r := NewReader(&buf)
	if v, err := r.version(); err != nil || v != Version {
		t.Fatalf("version = %d, %v; want %d", v, err, Version)
	}
	for _, want := range []any{rb, ms, mr, ph} {
		got, err := r.next()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("got %+v, want %+v", got, want)
		}
	}
	if _, err := r.next(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestUnknownVersionRejected(t *testing.T) {
	stream := []byte{0xCA, 'G', 'V', 'T', 0x63, 0x00} // version 99
	if _, err := NewReader(bytes.NewReader(stream)).next(); err == nil {
		t.Fatal("unknown version did not error")
	} else if !strings.Contains(err.Error(), "version 99") {
		t.Errorf("error does not name the version: %v", err)
	}
	// Older versions are refused too: no v0/v1 file exists outside old
	// checkouts, and guessing at one decodes garbage.
	for _, v := range []byte{0, 1} {
		old := []byte{0xCA, 'G', 'V', 'T', v, 0x00}
		if _, err := NewReader(bytes.NewReader(old)).next(); err == nil {
			t.Fatalf("headered version %d did not error", v)
		}
	}
	// A stream without the header — what the reader used to accept as
	// "v0" — is not a trace file.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Commit(Commit{LP: 1, T: 2.0, Src: 3, Seq: 4})
	w.Round(Round{Round: 1, GVT: 2.0, Sync: true, Efficiency: 0.9})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()[headerLen:]))
	if _, err := r.next(); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("headerless stream: err = %v, want bad magic", err)
	}
	if _, err := r.version(); err == nil {
		t.Error("version() forgot the header error")
	}
}

func TestErrorsCarryOffset(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Commit(Commit{LP: 1, T: 1})
	w.Rollback(Rollback{Worker: 1, Depth: 2})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Truncate mid-way through the rollback record.
	cut := full[:len(full)-5]
	r := NewReader(bytes.NewReader(cut))
	var err error
	for err == nil {
		_, err = r.next()
	}
	if err == io.EOF {
		t.Fatal("truncated rollback read as clean EOF")
	}
	if !strings.Contains(err.Error(), "offset") || !strings.Contains(err.Error(), "rollback") {
		t.Errorf("truncation error lacks offset/record type: %v", err)
	}
	if r.offset() != int64(len(cut)) {
		t.Errorf("Offset() = %d, want %d", r.offset(), len(cut))
	}

	// Corrupt a record kind byte; the error must name its offset.
	bad := append([]byte(nil), full...)
	kindOff := headerLen + 25 // first byte of the rollback record
	bad[kindOff] = 200
	r = NewReader(bytes.NewReader(bad))
	err = nil
	for err == nil {
		_, err = r.next()
	}
	want := fmt.Sprintf("offset %d", kindOff)
	if !strings.Contains(err.Error(), "unknown record type 200") || !strings.Contains(err.Error(), want) {
		t.Errorf("corruption error = %v, want unknown type at %s", err, want)
	}
}

func TestForEach(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Commit(Commit{LP: 1, T: 1})
	w.Round(Round{Round: 1, GVT: 1})
	w.Rollback(Rollback{Worker: 0, Depth: 3})
	w.MPISend(MPISend{Bytes: 10})
	w.MPIRecv(MPIRecv{Bytes: 10})
	w.Phase(Phase{Phase: PhaseGVT})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var commits, rounds, rollbacks, sends, recvs, phases int
	err := NewReader(&buf).ForEach(Visitor{
		Commit:   func(Commit) { commits++ },
		Round:    func(Round) { rounds++ },
		Rollback: func(Rollback) { rollbacks++ },
		MPISend:  func(MPISend) { sends++ },
		MPIRecv:  func(MPIRecv) { recvs++ },
		Phase:    func(Phase) { phases++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if commits != 1 || rounds != 1 || rollbacks != 1 || sends != 1 || recvs != 1 || phases != 1 {
		t.Errorf("visitor counts: %d %d %d %d %d %d", commits, rounds, rollbacks, sends, recvs, phases)
	}
}

func TestAnalyzeV1Records(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Rollback(Rollback{Depth: 4})
	w.Rollback(Rollback{Depth: 9, Anti: true})
	w.MPISend(MPISend{Bytes: 100})
	w.MPISend(MPISend{Bytes: 50})
	w.MPIRecv(MPIRecv{Bytes: 100})
	w.Phase(Phase{Phase: PhaseIdle})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(bytes.NewReader(buf.Bytes()), 20)
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceVersion != Version {
		t.Errorf("version = %d", a.TraceVersion)
	}
	if rb := a.Rollbacks; rb.Episodes != 2 || rb.Undone != 13 || rb.MaxDepth != 9 || rb.Anti != 1 {
		t.Errorf("rollback analysis = %+v", rb)
	}
	if len(a.MPI) != 1 || a.MPI[0].Messages != 2 || a.MPI[0].Bytes != 150 {
		t.Errorf("mpi analysis = %+v", a.MPI)
	}
	if len(a.Phases) != 1 || a.Phases[0].Transitions != 1 {
		t.Errorf("phase analysis = %+v", a.Phases)
	}
	// Receives are no analysis of their own; a visitor counts them.
	recvs := 0
	if err := NewReader(&buf).ForEach(Visitor{MPIRecv: func(MPIRecv) { recvs++ }}); err != nil || recvs != 1 {
		t.Errorf("%d receives, err %v", recvs, err)
	}
}

// TestAnalyzeOutOfRange holds Analyze to an error or a clamped timeline
// on the inputs that once indexed outside it: no bucket at all, and a
// commit or send stamped before zero after a later one set the span.
func TestAnalyzeOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		name    string
		buckets int
		write   func(w *Writer)
	}{
		{"no buckets", 0, func(w *Writer) { w.Commit(Commit{LP: 0, T: 1}) }},
		{"commit before zero", 20, func(w *Writer) {
			w.Commit(Commit{LP: 0, T: 5})
			w.Commit(Commit{LP: 0, T: -1})
		}},
		{"send before zero", 20, func(w *Writer) {
			w.MPISend(MPISend{Src: 0, Dst: 1, Bytes: 8, AtNanos: 100})
			w.MPISend(MPISend{Src: 0, Dst: 1, Bytes: 8, AtNanos: -100})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			w := NewWriter(&buf)
			tc.write(w)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			a, err := Analyze(&buf, tc.buckets)
			if tc.buckets < 1 {
				if err == nil {
					t.Fatalf("Analyze with %d buckets did not fail", tc.buckets)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var commits, sent int64
			for _, b := range a.CommitTimeline {
				commits += b.Count
			}
			for _, nb := range a.MPI {
				for _, b := range nb.Timeline {
					sent += b.Bytes
				}
			}
			if commits != a.Commits || (len(a.MPI) > 0 && sent != a.MPI[0].Bytes) {
				t.Errorf("timelines hold %d commits and %d bytes: %+v", commits, sent, a)
			}
			if len(a.CommitTimeline) > 0 && a.CommitTimeline[0].Count != 1 {
				t.Errorf("the early commit is not in the first bucket: %+v", a.CommitTimeline)
			}
		})
	}
}

func TestPhaseName(t *testing.T) {
	for ph, want := range map[uint8]string{
		PhaseProcessing: "processing", PhaseIdle: "idle",
		PhaseBarrier: "barrier", PhaseGVT: "gvt", 200: "phase(200)",
	} {
		if got := PhaseName(ph); got != want {
			t.Errorf("PhaseName(%d) = %q, want %q", ph, got, want)
		}
	}
}

func TestEmptyStream(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	if _, err := r.next(); err != io.EOF {
		t.Fatalf("empty stream: want EOF, got %v", err)
	}
	// Header-only stream (writer flushed with no records).
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r = NewReader(&buf)
	if v, err := r.version(); err != nil || v != Version {
		t.Fatalf("header-only version = %d, %v", v, err)
	}
	if _, err := r.next(); err != io.EOF {
		t.Fatalf("header-only stream: want EOF, got %v", err)
	}
}

func TestRoundTripFault(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	faults := []Fault{
		{Kind: FaultDrop, Src: 1, Dst: 2, AtNanos: 1000},
		{Kind: FaultJitter, Src: 2, Dst: 0, AtNanos: 2000, DelayNanos: 450},
		{Kind: FaultWatchdogRestart, Src: 0, AtNanos: 3000},
	}
	for _, f := range faults {
		w.Fault(f)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Faults != int64(len(faults)) {
		t.Errorf("writer.Faults = %d, want %d", w.Faults, len(faults))
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	for _, want := range faults {
		got, err := r.next()
		if err != nil {
			t.Fatal(err)
		}
		if got != any(want) {
			t.Errorf("got %+v, want %+v", got, want)
		}
	}
	if _, err := r.next(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}

	a, err := Analyze(bytes.NewReader(buf.Bytes()), 20)
	if err != nil {
		t.Fatal(err)
	}
	want := []FaultCount{{"drop", 1}, {"jitter", 1}, {"watchdog-restart", 1}}
	if fa := a.Faults; fa == nil || fa.Total != 3 || fmt.Sprint(fa.ByKind) != fmt.Sprint(want) ||
		fa.FirstNs != 1000 || fa.LastNs != 3000 {
		t.Errorf("fault analysis: %+v", fa)
	}
}

func TestFaultName(t *testing.T) {
	for k := uint8(0); k < NumFaultKinds; k++ {
		if strings.Contains(FaultName(k), "fault(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if FaultName(200) != "fault(200)" {
		t.Errorf("unknown kind: %q", FaultName(200))
	}
}
