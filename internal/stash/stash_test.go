package stash

import "testing"

// build is a package's struct of build arrays, as a Keep holds them.
type build struct {
	a Arrays[int64]
	b []*int64
}

func (m *build) Reset() int { return m.a.Reset() + Empty(&m.b) }

// TestKeepBounded: however many builds hand their arrays back, a Keep
// holds at most MaxBytes of them; a warm build of a kept shape makes no
// array, its struct included; what a Keep hands out is zero; and Held
// lists and empties every Keep.
func TestKeepBounded(t *testing.T) {
	k := NewKeep[build]()
	const quarter = MaxBytes / 4 / 8 // int64s in a quarter of the bound
	builds := make([]*build, 6)
	for i := range builds {
		m := k.Take()
		m.a.Make(quarter)[0] = 1
		x := int64(2)
		m.b = append(m.b, &x)
		builds[i] = m
	}
	for _, m := range builds {
		k.Put(m)
	}
	// Each build holds its a, grown by half again, and 8 B in b: two fit.
	if got, want := k.Held(false), 2*(quarter*3/2*8+8); got != want {
		t.Errorf("six builds of a quarter of MaxBytes each put back: the Keep holds %d B, want %d", got, want)
	}
	m := k.Take()
	if v := m.a.Make(quarter); v[0] != 0 || len(m.b) != 0 || cap(m.b) == 0 || m.b[:1][0] != nil {
		t.Errorf("a kept build is not zero: a[0]=%d, b=%v", v[0], m.b[:cap(m.b)])
	}
	k.Put(m)
	if allocs := testing.AllocsPerRun(10, func() {
		m := k.Take()
		m.a.Make(quarter)
		m.b = append(m.b, nil)
		k.Put(m)
	}); allocs != 0 {
		t.Errorf("a warm build: %v allocations, want 0", allocs)
	}
	found := false
	for _, b := range Held(false) {
		found = found || b == k.Held(false)
	}
	if !found {
		t.Error("Held does not list the Keep")
	}
	Held(true)
	if k.Held(false) != 0 {
		t.Errorf("after Held(true) the Keep holds %d B", k.Held(false))
	}
}
