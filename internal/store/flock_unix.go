//go:build unix

package store

import (
	"os"
	"syscall"
)

// flock takes a blocking exclusive advisory lock on fd. Advisory locks
// coordinate the daemons sharing a store directory (publish, eviction,
// quarantine); readers need no lock because entries are published by
// atomic rename and never modified in place.
func flock(fd uintptr) error {
	for {
		err := syscall.Flock(int(fd), syscall.LOCK_EX)
		if err != syscall.EINTR {
			return err
		}
	}
}

func funlock(fd uintptr) error {
	return syscall.Flock(int(fd), syscall.LOCK_UN)
}

// rename is rename(2) alone. os.Rename first stats newpath, to refuse a
// directory there; a publish has statted it already (Store.write).
func rename(oldpath, newpath string) error {
	for {
		err := syscall.Rename(oldpath, newpath)
		if err == nil {
			return nil
		}
		if err != syscall.EINTR {
			return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
		}
	}
}
