package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0 < p < 1) of sorted by the
// "exclusive" rule Python's statistics.quantiles uses, so the quartiles
// printed here are the ones an outside checker computes from the same
// values: position p·(n+1) in 1-based ranks, linear between neighbours.
// sorted must be ascending; an empty slice yields NaN.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return sorted[0]
	}
	pos := p * float64(n+1)
	j := int(math.Floor(pos))
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	frac := pos - float64(j)
	return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
}

// summary is a median with its quartiles and sample count.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// summarize sorts a copy of vals and takes its quartiles.
func summarize(vals []float64) summary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return summary{
		Median: quantile(s, 0.5),
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		N:      len(s),
	}
}

// spread is the interquartile distance as a share of the median: the
// run-to-run measure every bound in BENCHMARK.json is compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// percentile sorts a copy of vals and returns its p-quantile.
func percentile(vals []float64, p float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, p)
}

// splitmix64 is the seed-derivation step: every generated input (engine
// seeds, job-spec seeds, replay order) comes from the -seed flag through
// it, so one flag fixes the whole input set.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed derives the i-th seed of a named stream. Zero is never
// returned: a JobSpec seed of 0 means "default" and would alias seed 1.
func subSeed(seed, stream, i uint64) uint64 {
	s := splitmix64(splitmix64(seed)^(stream*0x100000001b3)) + i
	if v := splitmix64(s); v != 0 {
		return v
	}
	return 1
}
