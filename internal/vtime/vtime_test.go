package vtime

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestStampOrdering(t *testing.T) {
	a := Stamp{T: 1.0, Src: 0, Seq: 0}
	b := Stamp{T: 2.0, Src: 0, Seq: 0}
	c := Stamp{T: 1.0, Src: 1, Seq: 0}
	d := Stamp{T: 1.0, Src: 0, Seq: 5}

	if !a.Before(b) || b.Before(a) {
		t.Error("time ordering broken")
	}
	if !a.Before(c) || c.Before(a) {
		t.Error("src tie-break broken")
	}
	if !a.Before(d) || d.Before(a) {
		t.Error("seq tie-break broken")
	}
	if a.Before(a) {
		t.Error("stamp before itself")
	}
	if !a.Equal(a) || a.Equal(b) {
		t.Error("Equal broken")
	}
	if !b.After(a) {
		t.Error("After broken")
	}
}

func TestInfStampIsMaximal(t *testing.T) {
	cases := []Stamp{
		{},
		{T: 1e300, Src: 4096, Seq: 1 << 60},
		{T: Inf, Src: 0, Seq: 0},
	}
	for _, s := range cases {
		if InfStamp.Before(s) {
			t.Errorf("InfStamp < %v", s)
		}
	}
	if InfStamp.Before(InfStamp) {
		t.Error("InfStamp < itself")
	}
}

func TestMinStamp(t *testing.T) {
	a := Stamp{T: 3}
	b := Stamp{T: 2}
	if MinStamp(a, b) != b || MinStamp(b, a) != b {
		t.Error("MinStamp broken")
	}
	if MinStamp(a, a) != a {
		t.Error("MinStamp not reflexive")
	}
}

func TestMin(t *testing.T) {
	if Min(1.5, 2.5) != 1.5 || Min(2.5, 1.5) != 1.5 {
		t.Error("Min broken")
	}
}

func TestStampString(t *testing.T) {
	if InfStamp.String() != "∞" {
		t.Errorf("InfStamp.String() = %q", InfStamp.String())
	}
	s := Stamp{T: 1.5, Src: 3, Seq: 7}
	if s.String() != "1.5[3.7]" {
		t.Errorf("String() = %q", s.String())
	}
}

// Property: Before is a strict total order (irreflexive, antisymmetric,
// transitive via sort consistency).
func TestStampTotalOrderProperty(t *testing.T) {
	prop := func(ts []float64, srcs []uint32, seqs []uint64) bool {
		n := len(ts)
		if len(srcs) < n {
			n = len(srcs)
		}
		if len(seqs) < n {
			n = len(seqs)
		}
		stamps := make([]Stamp, n)
		for i := 0; i < n; i++ {
			stamps[i] = Stamp{T: ts[i], Src: srcs[i], Seq: seqs[i]}
		}
		sort.Slice(stamps, func(i, j int) bool { return stamps[i].Before(stamps[j]) })
		for i := 1; i < n; i++ {
			if stamps[i].Before(stamps[i-1]) {
				return false
			}
		}
		// Trichotomy on pairs.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a, b := stamps[i], stamps[j]
				lt, gt, eq := a.Before(b), b.Before(a), a.Equal(b)
				count := 0
				if lt {
					count++
				}
				if gt {
					count++
				}
				if eq {
					count++
				}
				if count != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
