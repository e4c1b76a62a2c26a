// Package storetest holds test doubles for the store's filesystem seam,
// for the packages above internal/store whose tests need to watch what
// a server does to its disk.
package storetest

import (
	"io/fs"

	"repro/internal/store"
)

// HookFS is the real filesystem with one observation point: Hook runs
// before every File.Write and File.Sync, told the operation ("write" or
// "sync") and the file's name. Tests count fsyncs with it, hold a write
// back, or note how much of a file a crash would keep.
type HookFS struct {
	store.OSFS
	Hook func(op, name string)
}

func (f *HookFS) CreateTemp(dir, pattern string) (store.File, error) {
	file, err := f.OSFS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &hookFile{File: file, fs: f}, nil
}

func (f *HookFS) OpenFile(name string, flag int, perm fs.FileMode) (store.File, error) {
	file, err := f.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &hookFile{File: file, fs: f}, nil
}

// Lock and Unlock hand the real file to the real filesystem.
func (f *HookFS) Lock(file store.File) error   { return f.OSFS.Lock(file.(*hookFile).File) }
func (f *HookFS) Unlock(file store.File) error { return f.OSFS.Unlock(file.(*hookFile).File) }

type hookFile struct {
	store.File
	fs *HookFS
}

func (f *hookFile) Write(p []byte) (int, error) {
	f.fs.Hook("write", f.Name())
	return f.File.Write(p)
}

func (f *hookFile) Sync() error {
	f.fs.Hook("sync", f.Name())
	return f.File.Sync()
}
