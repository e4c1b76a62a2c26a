package store

import (
	"io"
	"io/fs"
	"os"
)

// FS is the filesystem seam the store runs on. Production uses OSFS;
// tests inject failpoints (ENOSPC, permission loss, corruption bursts)
// by wrapping it, which is how the degradation paths are exercised
// without real disk faults.
//
// The surface is deliberately the handful of calls the store and the
// journal actually make, so a fault wrapper can reason about every
// operation by name.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	// CreateTemp creates a new unique file in dir for the write-then-
	// rename publish protocol. The file must live on the same filesystem
	// as the final path so Rename stays atomic.
	CreateTemp(dir, pattern string) (File, error)
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]fs.DirEntry, error)
	Stat(name string) (fs.FileInfo, error)
	// Lock takes an exclusive cross-process advisory lock on f (flock on
	// Unix); Unlock releases it. Lock blocks until the lock is granted.
	Lock(f File) error
	Unlock(f File) error
}

// File is the open-file surface the store needs: ordinary reads and
// writes plus Sync for the publish protocol's fsync and Fd for advisory
// locking.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
	Name() string
	Fd() uintptr
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (OSFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OSFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (OSFS) Rename(oldpath, newpath string) error       { return rename(oldpath, newpath) }
func (OSFS) Remove(name string) error                   { return os.Remove(name) }
func (OSFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (OSFS) Stat(name string) (fs.FileInfo, error)      { return os.Stat(name) }
func (OSFS) Lock(f File) error                          { return flock(f.Fd()) }
func (OSFS) Unlock(f File) error                        { return funlock(f.Fd()) }
