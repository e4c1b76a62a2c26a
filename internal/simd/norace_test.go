//go:build !race

package simd

const raceEnabled = false
