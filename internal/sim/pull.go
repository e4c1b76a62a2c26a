//go:build go1.23

package sim

import "iter"

// pull is iter.Pull. It lives in its own file because the build
// constraint is what raises this file's language version to one that has
// package iter, while go.mod stays at go 1.22.
func pull(seq func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func()) {
	return iter.Pull(seq)
}
