// Package iofault is an in-memory filesystem for crash and fault
// testing of the relstore durability layer. It implements relstore.FS
// with three extras:
//
//   - injectable faults: short writes, fsync errors, and failed renames,
//     armed as countdowns so a test can target "the Nth write from now";
//   - Image(), a deep copy of the current file set — the disk as a crash
//     at this instant would leave it (writes are applied synchronously,
//     so an image is always write-ordered);
//   - Truncate(), to model the torn tail a mid-record crash leaves.
//
// Everything is safe for concurrent use.
package iofault

import (
	"fmt"
	"os"
	"sync"

	"github.com/aigrepro/aig/internal/relstore"
)

var _ relstore.FS = (*FS)(nil)

// FS is the in-memory fault-injecting filesystem.
type FS struct {
	mu    sync.Mutex
	files map[string][]byte

	// Fault countdowns: at 1 the next matching operation fails (short
	// writes persist half their payload first); 0 is disarmed.
	shortWriteIn int
	syncErrIn    int
	renameErrIn  int
}

// New returns an empty filesystem.
func New() *FS {
	return &FS{files: make(map[string][]byte)}
}

// InjectShortWrite arms a fault: counting from now, the n-th file write
// persists only half its bytes and returns an error.
func (f *FS) InjectShortWrite(n int) {
	f.mu.Lock()
	f.shortWriteIn = n
	f.mu.Unlock()
}

// InjectSyncError arms a fault: the n-th Sync (file or directory) from
// now fails.
func (f *FS) InjectSyncError(n int) {
	f.mu.Lock()
	f.syncErrIn = n
	f.mu.Unlock()
}

// InjectRenameError arms a fault: the n-th Rename from now fails without
// renaming — the old destination, if any, survives intact (a torn
// rename, as a crash before the directory update would leave it).
func (f *FS) InjectRenameError(n int) {
	f.mu.Lock()
	f.renameErrIn = n
	f.mu.Unlock()
}

// fire decrements a countdown and reports whether it hit zero now.
func fire(counter *int) bool {
	if *counter == 0 {
		return false
	}
	*counter--
	return *counter == 0
}

// Image returns a deep copy of the current file set: the crash-
// consistent state a power loss at this instant would leave (modulo
// flushing, which the in-memory model treats as immediate).
func (f *FS) Image() *FS {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := New()
	for name, b := range f.files {
		cp := make([]byte, len(b))
		copy(cp, b)
		out.files[name] = cp
	}
	return out
}

// Bytes returns a copy of the named file's content (nil if absent).
func (f *FS) Bytes(name string) []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	b, ok := f.files[name]
	if !ok {
		return nil
	}
	cp := make([]byte, len(b))
	copy(cp, b)
	return cp
}

// Truncate cuts the named file to n bytes, modelling a torn tail.
func (f *FS) Truncate(name string, n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if b, ok := f.files[name]; ok && int64(len(b)) > n {
		f.files[name] = b[:n:n]
	}
}

// OpenAppend implements relstore.FS.
func (f *FS) OpenAppend(name string) (relstore.File, int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.files[name]; !ok {
		f.files[name] = nil
	}
	return &File{fs: f, name: name}, int64(len(f.files[name])), nil
}

// Create implements relstore.FS.
func (f *FS) Create(name string) (relstore.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.files[name] = nil
	return &File{fs: f, name: name}, nil
}

// ReadFile implements relstore.FS.
func (f *FS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	b, ok := f.files[name]
	if !ok {
		return nil, fmt.Errorf("iofault: %s: %w", name, os.ErrNotExist)
	}
	cp := make([]byte, len(b))
	copy(cp, b)
	return cp, nil
}

// Rename implements relstore.FS.
func (f *FS) Rename(oldname, newname string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if fire(&f.renameErrIn) {
		return fmt.Errorf("iofault: injected rename error %s -> %s", oldname, newname)
	}
	b, ok := f.files[oldname]
	if !ok {
		return fmt.Errorf("iofault: %s: %w", oldname, os.ErrNotExist)
	}
	f.files[newname] = b
	delete(f.files, oldname)
	return nil
}

// Remove implements relstore.FS.
func (f *FS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.files, name)
	return nil
}

// SyncDir implements relstore.FS.
func (f *FS) SyncDir() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if fire(&f.syncErrIn) {
		return fmt.Errorf("iofault: injected directory sync error")
	}
	return nil
}

// File is an open file of an FS.
type File struct {
	fs     *FS
	name   string
	closed bool
}

// Write appends to the file, honouring an armed short-write fault.
func (w *File) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("iofault: write to closed file %s", w.name)
	}
	if fire(&w.fs.shortWriteIn) {
		n := len(p) / 2
		w.fs.files[w.name] = append(w.fs.files[w.name], p[:n]...)
		return n, fmt.Errorf("iofault: injected short write on %s (%d of %d bytes)", w.name, n, len(p))
	}
	w.fs.files[w.name] = append(w.fs.files[w.name], p...)
	return len(p), nil
}

// Sync honours an armed fsync fault.
func (w *File) Sync() error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if fire(&w.fs.syncErrIn) {
		return fmt.Errorf("iofault: injected fsync error on %s", w.name)
	}
	return nil
}

// Truncate cuts the file; later writes append past the cut.
func (w *File) Truncate(size int64) error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if b := w.fs.files[w.name]; int64(len(b)) > size {
		w.fs.files[w.name] = b[:size:size]
	}
	return nil
}

// Close marks the handle closed.
func (w *File) Close() error {
	w.fs.mu.Lock()
	w.closed = true
	w.fs.mu.Unlock()
	return nil
}
