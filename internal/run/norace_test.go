//go:build !race

package run

const raceEnabled = false
