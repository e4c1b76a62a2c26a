package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	s := New(0)
	v := s.Uint64()
	if v == 0 && s.Uint64() == 0 && s.Uint64() == 0 {
		t.Fatal("zero seed produced a dead stream")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(9)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestIntnRangeAndCoverage(t *testing.T) {
	s := New(11)
	seen := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v]++
	}
	for v, c := range seen {
		if c < 800 || c > 1200 {
			t.Errorf("Intn(10) hit %d only %d/10000 times", v, c)
		}
	}
}

func TestIntnOne(t *testing.T) {
	s := New(3)
	for i := 0; i < 100; i++ {
		if s.Intn(1) != 0 {
			t.Fatal("Intn(1) != 0")
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMeanAndPositivity(t *testing.T) {
	s := New(13)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		d := s.Exp(2.5)
		if d < 0 || math.IsInf(d, 0) || math.IsNaN(d) {
			t.Fatalf("Exp draw invalid: %v", d)
		}
		sum += d
	}
	mean := sum / n
	if math.Abs(mean-2.5) > 0.05 {
		t.Errorf("Exp mean = %v, want ~2.5", mean)
	}
}

func TestSaveRestore(t *testing.T) {
	s := New(99)
	for i := 0; i < 17; i++ {
		s.Uint64()
	}
	snap := s.Save()
	var first [32]uint64
	for i := range first {
		first[i] = s.Uint64()
	}
	s.Restore(snap)
	for i := range first {
		if s.Uint64() != first[i] {
			t.Fatal("Restore did not replay identical draws")
		}
	}
}

func TestLongJumpStreamsIndependent(t *testing.T) {
	a := NewAt(5, 0)
	b := NewAt(5, 1)
	c := NewAt(5, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		x, y, z := a.Uint64(), b.Uint64(), c.Uint64()
		if x == y || y == z || x == z {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("substreams collided %d/1000 draws", same)
	}
}

func TestNewAtDeterministic(t *testing.T) {
	a := NewAt(5, 3)
	b := NewAt(5, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("NewAt not deterministic")
		}
	}
}

// Property: Save/Restore round-trips from any reachable state.
func TestSaveRestoreProperty(t *testing.T) {
	prop := func(seed uint64, skip uint8) bool {
		s := New(seed)
		for i := 0; i < int(skip); i++ {
			s.Uint64()
		}
		snap := s.Save()
		a, b, c := s.Uint64(), s.Uint64(), s.Uint64()
		s.Restore(snap)
		return s.Uint64() == a && s.Uint64() == b && s.Uint64() == c
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Intn is always in range for arbitrary n and state.
func TestIntnRangeProperty(t *testing.T) {
	prop := func(seed uint64, n uint16) bool {
		bound := int(n%1000) + 1
		s := New(seed)
		for i := 0; i < 20; i++ {
			v := s.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkExp(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.Exp(1.0)
	}
	_ = sink
}

func TestSequenceMatchesNewAt(t *testing.T) {
	q := NewSequence(77)
	for i := 0; i < 10; i++ {
		want := NewAt(77, i)
		got := q.Next()
		for j := 0; j < 50; j++ {
			if got.Uint64() != want.Uint64() {
				t.Fatalf("Sequence stream %d diverges from NewAt", i)
			}
		}
	}
}

// TestStreamsPinned pins the first draws of substreams 0, 1 and 255 of two
// seeds, taken in this order from one stream: Uint64, Intn for n = 1, 3,
// 1<<31+1 and MaxInt64 (the last two reject now and then, so they pin how
// many draws Intn takes too), and Exp(1) as its bits. A stream handed out
// by NewAt or by Sequence.Next must keep drawing these values: every
// commit checksum depends on them.
func TestStreamsPinned(t *testing.T) {
	draws := func(s *Stream) [6]uint64 {
		return [6]uint64{s.Uint64(), uint64(s.Intn(1)), uint64(s.Intn(3)), uint64(s.Intn(1<<31 + 1)),
			uint64(s.Intn(math.MaxInt64)), math.Float64bits(s.Exp(1))}
	}
	want := []struct {
		seed  uint64
		sub   int
		draws [6]uint64
	}{
		{0x1, 0, [6]uint64{0xb3f2af6d0fc710c5, 0, 1, 840371774, 6430335911997840184, 0x3fc3d68d0104d633}},
		{0x1, 1, [6]uint64{0x39f49e454a208207, 0, 1, 1362507753, 80527283780214806, 0x3fc26b57f95d53c1}},
		{0x1, 255, [6]uint64{0xf438caa18461223b, 0, 2, 616160941, 432683511185115448, 0x3ff2c74b0eaf3398}},
		{0xc0ffee, 0, [6]uint64{0x120e99a6dde4a550, 0, 2, 677465599, 8913175201032644428, 0x3fd78ad3962b0f48}},
		{0xc0ffee, 1, [6]uint64{0xf3fdce34671aaefc, 0, 0, 1571636517, 5332559452839370512, 0x3ff37de4d3aab242}},
		{0xc0ffee, 255, [6]uint64{0x79b0d5755219402, 0, 1, 1645508764, 49756090465935145, 0x3fd13b8061b77b74}},
	}
	for _, w := range want {
		if got := draws(NewAt(w.seed, w.sub)); got != w.draws {
			t.Errorf("NewAt(%#x, %d): draws %#x, want %#x", w.seed, w.sub, got, w.draws)
		}
		q := NewSequence(w.seed)
		for i := 0; i < w.sub; i++ {
			q.Next()
		}
		s := q.Next()
		if got := draws(&s); got != w.draws {
			t.Errorf("Sequence(%#x) stream %d: draws %#x, want %#x", w.seed, w.sub, got, w.draws)
		}
	}
}
