package wal

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FS is the filesystem surface the log writes through. The production
// implementation (OSFS) maps straight onto the os package; tests substitute
// MemFS, whose crash injection drops or tears unsynced bytes at a chosen
// write index — the only way to prove the recovery path against every kill
// point without actually killing processes.
//
// Durability model: bytes written to a File are volatile until Sync returns;
// metadata operations (Create, Rename, Remove, MkdirAll) are durable on
// return. Rename is atomic. This matches the guarantees the on-disk format
// relies on: record durability comes from group-commit Sync, and image /
// manifest atomicity comes from write-to-temp + Sync + Rename.
type FS interface {
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(dir string) error
	// Create truncating-creates a file for writing.
	Create(name string) (File, error)
	// Open opens a file for reading.
	Open(name string) (File, error)
	// ReadDir lists the names (not paths) of a directory's entries, sorted.
	ReadDir(dir string) ([]string, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes a file.
	Remove(name string) error
	// Size returns a file's current length in bytes.
	Size(name string) (int64, error)
}

// File is one open file handle.
type File interface {
	io.Reader
	io.Writer
	// Sync makes all bytes written so far durable.
	Sync() error
	// Close releases the handle. Close does NOT imply Sync.
	Close() error
}

// OSFS is the production FS over the real filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(dir string) error            { return os.MkdirAll(dir, 0o755) }
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (OSFS) Remove(name string) error             { return os.Remove(name) }

func (OSFS) Create(name string) (File, error) { return os.Create(name) }
func (OSFS) Open(name string) (File, error)   { return os.Open(name) }

func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func (OSFS) Size(name string) (int64, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// ErrCrashed is returned by every MemFS operation after the injected crash
// point fires: the process is "dead", and only Recover (modeling a restart)
// makes the surviving state visible again.
var ErrCrashed = errors.New("wal: simulated crash")

// MemFS is an in-memory FS with crash injection. Data writes are volatile
// until Sync; metadata operations are durable immediately (journaled-metadata
// semantics). CrashAfterWrites(k) arms a crash on the k-th Write call: the
// crashing write applies a seeded-random prefix of its bytes (a torn write),
// every file loses a seeded-random suffix of its unsynced bytes, and all
// subsequent operations fail with ErrCrashed until Recover.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	dirs  map[string]bool
	rng   *rand.Rand

	crashAt int64 // 1-based write index that crashes; 0 = disarmed
	writes  int64
	crashed bool

	syncHook func(name string) error
}

// NewMemFS builds an empty MemFS whose torn-write prefixes draw from seed.
func NewMemFS(seed int64) *MemFS {
	return &MemFS{
		files: make(map[string]*memFile),
		dirs:  make(map[string]bool),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// memFile is one file's durable identity. data holds everything written;
// synced marks the durable prefix. Crash truncates data to synced plus a
// random prefix of the unsynced suffix.
type memFile struct {
	data   []byte
	synced int
}

// memHandle is an open handle; reads snapshot nothing — they walk the live
// data (handles are never shared between a writer and a reader in the log).
type memHandle struct {
	fs   *MemFS
	f    *memFile
	name string
	rpos int
}

// CrashAfterWrites arms the crash point: the k-th Write call (1-based) from
// now on tears and then kills the filesystem. k <= 0 disarms.
func (m *MemFS) CrashAfterWrites(k int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writes = 0
	m.crashAt = k
}

// SetSyncHook installs fn to run at the start of every File.Sync, with the
// file's name and outside the filesystem's lock: it may block (a gate that
// holds an fsync open), sleep (a slow disk) or return an error, which Sync
// then returns without making anything durable. Nil removes the hook.
func (m *MemFS) SetSyncHook(fn func(name string) error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.syncHook = fn
}

// Writes reports how many Write calls have been issued since the crash point
// was last armed — the harness uses a no-crash run to learn the total number
// of kill points to sweep.
func (m *MemFS) Writes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.writes
}

// Crashed reports whether the injected crash has fired.
func (m *MemFS) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// Recover models the process restart after a crash: the filesystem becomes
// usable again, exposing exactly the state that survived (durable metadata,
// synced data, and whatever torn prefix of unsynced data was retained).
func (m *MemFS) Recover() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashed = false
	m.crashAt = 0
}

// crashLocked tears every file's unsynced suffix and marks the fs dead.
// Caller holds m.mu.
func (m *MemFS) crashLocked() {
	m.crashed = true
	// Deterministic iteration: sort names so the retained prefixes depend
	// only on the seed, not map order.
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := m.files[n]
		if unsynced := len(f.data) - f.synced; unsynced > 0 {
			keep := f.synced + m.rng.Intn(unsynced+1)
			f.data = f.data[:keep]
			f.synced = len(f.data)
		}
	}
}

func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	m.dirs[filepath.Clean(dir)] = true
	return nil
}

func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	f := &memFile{}
	m.files[filepath.Clean(name)] = f
	return &memHandle{fs: m, f: f, name: name}, nil
}

func (m *MemFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	f, ok := m.files[filepath.Clean(name)]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return &memHandle{fs: m, f: f, name: name}, nil
}

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	dir = filepath.Clean(dir)
	var names []string
	for n := range m.files {
		if filepath.Dir(n) == dir {
			names = append(names, filepath.Base(n))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	f, ok := m.files[filepath.Clean(oldname)]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldname, Err: os.ErrNotExist}
	}
	delete(m.files, filepath.Clean(oldname))
	m.files[filepath.Clean(newname)] = f
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	if _, ok := m.files[filepath.Clean(name)]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(m.files, filepath.Clean(name))
	return nil
}

func (m *MemFS) Size(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return 0, ErrCrashed
	}
	f, ok := m.files[filepath.Clean(name)]
	if !ok {
		return 0, &os.PathError{Op: "stat", Path: name, Err: os.ErrNotExist}
	}
	return int64(len(f.data)), nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return 0, ErrCrashed
	}
	h.fs.writes++
	if h.fs.crashAt > 0 && h.fs.writes >= h.fs.crashAt {
		// The dying write lands torn: a seeded-random prefix reaches the
		// file before the crash takes the filesystem down.
		h.f.data = append(h.f.data, p[:h.fs.rng.Intn(len(p)+1)]...)
		h.fs.crashLocked()
		return 0, ErrCrashed
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return 0, ErrCrashed
	}
	if h.rpos >= len(h.f.data) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[h.rpos:])
	h.rpos += n
	return n, nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	hook := h.fs.syncHook
	h.fs.mu.Unlock()
	if hook != nil {
		if err := hook(h.name); err != nil {
			return err
		}
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return ErrCrashed
	}
	h.f.synced = len(h.f.data)
	return nil
}

func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return ErrCrashed
	}
	return nil
}
