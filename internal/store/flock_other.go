//go:build !unix

package store

import "os"

// Non-Unix hosts get no cross-process advisory locking: a single daemon
// per store directory remains safe (publishes are atomic renames), and
// multi-daemon sharing is a documented Unix-only deployment.
func flock(fd uintptr) error   { return nil }
func funlock(fd uintptr) error { return nil }

func rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
