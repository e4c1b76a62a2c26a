//go:build race

package client

// raceEnabled reports a -race build, whose detector allocates on its own
// account and so voids allocation counts.
const raceEnabled = true
