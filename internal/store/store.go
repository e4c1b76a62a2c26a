// Package store is the persistence layer under the simd result cache: a
// disk-backed content-addressed store (spec hash → canonical report
// bytes) plus a job journal for warm restarts.
//
// Durability protocol. An entry is published by writing a temp file in
// the store root, fsyncing it, and atomically renaming it into place —
// a reader therefore sees either nothing or a complete entry, never a
// torn write, even across kill -9. Each entry embeds a SHA-256 checksum
// of its payload; a checksum mismatch on read (bit rot, a torn sector
// that survived rename, a hostile edit) quarantines the entry and
// reports a miss, so corruption can only cost a re-execution, never a
// wrong result.
//
// Sharing protocol. Multiple daemons on one host may point at the same
// directory. Mutating maintenance — the rename publishing an entry,
// eviction sweeps, quarantine moves — happens under an exclusive
// advisory flock on <dir>/lock, closing the classic concurrent-
// downloader race (two daemons completing the same spec publish the
// same bytes; the flock serializes the renames and the sweep that might
// otherwise double-delete). Reads take no lock: entries are immutable
// once published.
//
// Degradation protocol. Disk trouble must not fail requests: the store
// counts consecutive infrastructure failures (ENOSPC, permission loss,
// I/O errors, a corruption burst) and past Options.FailThreshold it
// trips into degraded mode, where operations are skipped — the daemon
// keeps serving from its in-memory cache. Every ProbeEvery-th operation
// while degraded is attempted for real; the first success recovers the
// store. The FS seam lets tests inject every one of these faults
// deterministically.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// entryMagic heads every stored entry; bump the version when the format
// changes so old files quarantine instead of misparsing.
const entryMagic = "simdstore v1\n"

// hashLen is the hex length of a SHA-256 content address.
const hashLen = 64

// Options configures Open.
type Options struct {
	// Dir is the store directory, created if absent.
	Dir string
	// MaxBytes bounds the payload bytes kept on disk; oldest entries are
	// evicted past it (<= 0: unbounded).
	MaxBytes int64
	// FailThreshold is how many consecutive infrastructure failures trip
	// degraded mode (default 3).
	FailThreshold int
	// ProbeEvery is how often a degraded store retries the disk: every
	// Nth skipped operation runs for real as a recovery probe (default 8).
	ProbeEvery int
	// FS is the filesystem seam (default: the real OS filesystem).
	FS FS
	// Logger receives store lifecycle logs; nil discards them.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.FailThreshold <= 0 {
		o.FailThreshold = 3
	}
	if o.ProbeEvery <= 0 {
		o.ProbeEvery = 8
	}
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.Logger == nil {
		o.Logger = obs.NopLogger()
	}
	return o
}

// Store is a disk-backed content-addressed result store. All methods
// are safe for concurrent use, and multiple processes may share one
// directory (see the package comment for the locking protocol).
type Store struct {
	opts Options
	fs   FS
	log  *slog.Logger
	lock File // <dir>/lock, held open for flock

	mu          sync.Mutex // guards the failure/probe state below
	consecFails int
	probeTick   int

	degraded atomic.Bool

	hits, misses, puts, putErrors   atomic.Int64
	quarantined, evictions, skipped atomic.Int64
	degradedEvents                  atomic.Int64
	entries, bytes                  atomic.Int64 // this process's view; re-seeded by scans
}

// Stats is a point-in-time snapshot of store accounting. Entries and
// Bytes are this process's view (seeded by a directory scan at Open and
// on every eviction sweep); with multiple daemons sharing the directory
// they are approximate between sweeps.
type Stats struct {
	Dir      string `json:"dir"`
	Entries  int64  `json:"entries"`
	Bytes    int64  `json:"bytes"`
	MaxBytes int64  `json:"max_bytes"`

	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Puts        int64 `json:"puts"`
	PutErrors   int64 `json:"put_errors"`
	Quarantined int64 `json:"quarantined"`
	Evictions   int64 `json:"evictions"`
	// Skipped counts operations bypassed while degraded.
	Skipped int64 `json:"skipped"`

	Degraded bool `json:"degraded"`
	// DegradedEvents counts ok→degraded transitions.
	DegradedEvents int64 `json:"degraded_events"`
}

// Open opens (creating if needed) the store directory. Startup errors
// are returned, not degraded over: a store that cannot even create its
// directory is an operator mistake, unlike a disk that sours later.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("store: empty directory")
	}
	s := &Store{opts: opts, fs: opts.FS, log: opts.Logger}
	for _, d := range []string{opts.Dir, s.objectsDir(), s.quarantineDir()} {
		if err := s.fs.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	lock, err := s.fs.OpenFile(filepath.Join(opts.Dir, "lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: lock file: %w", err)
	}
	s.lock = lock
	n, b := s.scan()
	s.entries.Store(n)
	s.bytes.Store(b)
	s.log.Info("store opened", "dir", opts.Dir, "entries", n, "bytes", b,
		"max_bytes", opts.MaxBytes)
	return s, nil
}

// Close releases the lock file handle.
func (s *Store) Close() error {
	if s.lock != nil {
		return s.lock.Close()
	}
	return nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.opts.Dir }

func (s *Store) objectsDir() string    { return filepath.Join(s.opts.Dir, "objects") }
func (s *Store) quarantineDir() string { return filepath.Join(s.opts.Dir, "quarantine") }

// objectPath shards entries by the first two hex digits so no single
// directory grows unbounded.
func (s *Store) objectPath(hash string) string {
	return filepath.Join(s.objectsDir(), hash[:2], hash)
}

// validHash accepts exactly the lowercase-hex SHA-256 form, which also
// forecloses path traversal through a hostile "hash".
func validHash(h string) bool {
	if len(h) != hashLen {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// encode frames a payload with the magic and its checksum.
func encode(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	buf := make([]byte, 0, len(entryMagic)+hashLen+1+len(payload))
	buf = append(buf, entryMagic...)
	buf = append(buf, hex.EncodeToString(sum[:])...)
	buf = append(buf, '\n')
	return append(buf, payload...)
}

// errCorrupt distinguishes checksum/format failures (quarantine the
// entry) from infrastructure failures (count toward degradation).
var errCorrupt = errors.New("store: corrupt entry")

// decode verifies the frame and returns the payload.
func decode(b []byte) ([]byte, error) {
	headerLen := len(entryMagic) + hashLen + 1
	if len(b) < headerLen || string(b[:len(entryMagic)]) != entryMagic || b[headerLen-1] != '\n' {
		return nil, fmt.Errorf("%w: bad header", errCorrupt)
	}
	want := string(b[len(entryMagic) : headerLen-1])
	payload := b[headerLen:]
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != want {
		return nil, fmt.Errorf("%w: checksum mismatch", errCorrupt)
	}
	return payload, nil
}

// Get returns the stored payload for hash. Every failure — absent
// entry, unreadable disk, corrupt frame — is a miss: the caller
// re-executes and the result is still correct, just slower.
func (s *Store) Get(hash string) ([]byte, bool) {
	if !validHash(hash) {
		s.misses.Add(1)
		return nil, false
	}
	if s.degraded.Load() && !s.probeTurn() {
		s.skipped.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	data, err := s.fs.ReadFile(s.objectPath(hash))
	if err != nil {
		s.misses.Add(1)
		if errors.Is(err, fs.ErrNotExist) {
			s.ok() // the disk answered; absence is a healthy miss
			return nil, false
		}
		s.fail("get", err)
		return nil, false
	}
	payload, err := decode(data)
	if err != nil {
		s.quarantine(hash)
		s.misses.Add(1)
		// A corrupt entry is a disk telling lies; a burst of them should
		// trip degradation like any other infrastructure failure.
		s.fail("get", err)
		return nil, false
	}
	s.ok()
	s.hits.Add(1)
	return payload, true
}

// Put is Publish for callers that need not know whether the payload
// was stored.
func (s *Store) Put(hash string, payload []byte) error {
	_, err := s.Publish(hash, payload)
	return err
}

// Publish durably stores payload under hash (temp file + fsync + atomic
// rename, under the cross-process lock), then enforces the byte budget.
// stored reports that the entry is on disk; it is false with a nil
// error when the store declined the write (a payload over the whole
// budget, a degraded store between probes). Errors are returned for
// logging but the store has already absorbed them into its degradation
// accounting — callers keep serving.
func (s *Store) Publish(hash string, payload []byte) (stored bool, err error) {
	if !validHash(hash) {
		return false, fmt.Errorf("store: invalid hash %q", hash)
	}
	if s.opts.MaxBytes > 0 && int64(len(payload)) > s.opts.MaxBytes {
		return false, nil // larger than the whole budget: never storable
	}
	if s.degraded.Load() && !s.probeTurn() {
		s.skipped.Add(1)
		return false, nil
	}
	oldPayload, replaced, err := s.write(hash, payload)
	if err != nil {
		s.putErrors.Add(1)
		s.fail("put", err)
		return false, err
	}
	s.ok()
	s.puts.Add(1)
	// Content-addressed entries are immutable in principle, but two
	// daemons sharing a directory (or a journal replay) can republish
	// the same hash. The object file is simply replaced, so account for
	// the delta only — never double-count entries or bytes.
	if replaced {
		s.bytes.Add(int64(len(payload)) - oldPayload)
	} else {
		s.entries.Add(1)
		s.bytes.Add(int64(len(payload)))
	}
	s.evict()
	return true, nil
}

// write runs the publish protocol for one entry. It reports whether an
// entry for hash already existed (and its old payload size), observed
// under the cross-process lock immediately before the rename, so the
// caller can keep entry/byte accounting replace-aware.
func (s *Store) write(hash string, payload []byte) (oldPayload int64, replaced bool, err error) {
	if err := s.fs.MkdirAll(filepath.Dir(s.objectPath(hash)), 0o755); err != nil {
		return 0, false, err
	}
	tmp, err := s.fs.CreateTemp(s.opts.Dir, "tmp-*")
	if err != nil {
		return 0, false, err
	}
	name := tmp.Name()
	cleanup := func() { tmp.Close(); s.fs.Remove(name) }
	if _, err := tmp.Write(encode(payload)); err != nil {
		cleanup()
		return 0, false, err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return 0, false, err
	}
	if err := tmp.Close(); err != nil {
		s.fs.Remove(name)
		return 0, false, err
	}
	if err := s.fs.Lock(s.lock); err != nil {
		s.fs.Remove(name)
		return 0, false, err
	}
	defer s.fs.Unlock(s.lock)
	if st, statErr := s.fs.Stat(s.objectPath(hash)); statErr == nil {
		replaced = true
		if oldPayload = st.Size() - int64(len(entryMagic)+hashLen+1); oldPayload < 0 {
			oldPayload = 0
		}
	}
	if err := s.fs.Rename(name, s.objectPath(hash)); err != nil {
		s.fs.Remove(name)
		return 0, false, err
	}
	return oldPayload, replaced, nil
}

// quarantine moves a corrupt entry aside so it stops answering reads
// but stays available for inspection.
func (s *Store) quarantine(hash string) {
	if err := s.fs.Lock(s.lock); err == nil {
		defer s.fs.Unlock(s.lock)
	}
	dst := filepath.Join(s.quarantineDir(), hash)
	if err := s.fs.Rename(s.objectPath(hash), dst); err != nil {
		// Another daemon may have quarantined it first; just drop it.
		s.fs.Remove(s.objectPath(hash))
	}
	s.quarantined.Add(1)
	s.entries.Add(-1)
	s.log.Warn("store quarantined corrupt entry", "hash", hash, "to", dst)
}

// entryInfo is one on-disk entry seen by a scan.
type entryInfo struct {
	path    string
	payload int64 // payload bytes (frame minus header)
	mtime   int64
}

// walk lists every object entry. Read errors are ignored: a scan is
// advisory bookkeeping, not correctness.
func (s *Store) walk() []entryInfo {
	var out []entryInfo
	shards, err := s.fs.ReadDir(s.objectsDir())
	if err != nil {
		return nil
	}
	headerLen := int64(len(entryMagic) + hashLen + 1)
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		files, err := s.fs.ReadDir(filepath.Join(s.objectsDir(), sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			info, err := f.Info()
			if err != nil {
				continue
			}
			payload := info.Size() - headerLen
			if payload < 0 {
				payload = 0
			}
			out = append(out, entryInfo{
				path:    filepath.Join(s.objectsDir(), sh.Name(), f.Name()),
				payload: payload,
				mtime:   info.ModTime().UnixNano(),
			})
		}
	}
	return out
}

// scan recounts entries and payload bytes from disk.
func (s *Store) scan() (entries, bytes int64) {
	for _, e := range s.walk() {
		entries++
		bytes += e.payload
	}
	return entries, bytes
}

// evict enforces MaxBytes, removing oldest entries first. It rescans
// under the cross-process lock so two daemons sharing the directory
// cannot both act on a stale view.
func (s *Store) evict() {
	if s.opts.MaxBytes <= 0 || s.bytes.Load() <= s.opts.MaxBytes {
		return
	}
	if err := s.fs.Lock(s.lock); err != nil {
		return // budget enforcement waits for a healthier moment
	}
	defer s.fs.Unlock(s.lock)
	entries := s.walk()
	var total int64
	for _, e := range entries {
		total += e.payload
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime < entries[j].mtime })
	n := int64(len(entries))
	for _, e := range entries {
		if total <= s.opts.MaxBytes {
			break
		}
		if err := s.fs.Remove(e.path); err != nil {
			continue
		}
		total -= e.payload
		n--
		s.evictions.Add(1)
	}
	s.entries.Store(n)
	s.bytes.Store(total)
}

// probeTurn decides whether a degraded store should try the disk for
// real this time. Deterministic (every Nth operation) so tests don't
// race a clock.
func (s *Store) probeTurn() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.probeTick++
	return s.probeTick%s.opts.ProbeEvery == 0
}

// ok records a successful disk interaction, recovering a degraded
// store.
func (s *Store) ok() {
	s.mu.Lock()
	s.consecFails = 0
	s.mu.Unlock()
	if s.degraded.CompareAndSwap(true, false) {
		s.log.Info("store recovered from degraded mode", "dir", s.opts.Dir)
	}
}

// fail records an infrastructure failure, tripping degraded mode past
// the threshold.
func (s *Store) fail(op string, err error) {
	s.mu.Lock()
	s.consecFails++
	trip := s.consecFails >= s.opts.FailThreshold && !s.degraded.Load()
	s.mu.Unlock()
	s.log.Warn("store operation failed", "op", op, "error", err.Error())
	if trip && s.degraded.CompareAndSwap(false, true) {
		s.degradedEvents.Add(1)
		s.log.Error("store degraded: bypassing disk, serving memory-only",
			"dir", s.opts.Dir, "consecutive_failures", s.opts.FailThreshold)
	}
}

// Degraded reports whether the store is currently bypassing the disk.
func (s *Store) Degraded() bool { return s.degraded.Load() }

// Stats returns a snapshot of store accounting.
func (s *Store) Stats() Stats {
	return Stats{
		Dir:            s.opts.Dir,
		Entries:        s.entries.Load(),
		Bytes:          s.bytes.Load(),
		MaxBytes:       s.opts.MaxBytes,
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Puts:           s.puts.Load(),
		PutErrors:      s.putErrors.Load(),
		Quarantined:    s.quarantined.Load(),
		Evictions:      s.evictions.Load(),
		Skipped:        s.skipped.Load(),
		Degraded:       s.degraded.Load(),
		DegradedEvents: s.degradedEvents.Load(),
	}
}
