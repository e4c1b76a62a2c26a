package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// testHash fabricates a valid content address from an index.
func testHash(i int) string { return fmt.Sprintf("%064x", i) }

func openTestStore(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, Options{Dir: dir})
	payload := []byte(`{"report":"canonical bytes"}`)
	h := testHash(1)

	if _, ok := s.Get(h); ok {
		t.Fatal("hit before any put")
	}
	if err := s.Put(h, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(h)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("get = (%q, %v), want stored payload", got, ok)
	}

	// A second store on the same directory — a restarted daemon — sees
	// the entry: that is the whole point of the store.
	s2 := openTestStore(t, Options{Dir: dir})
	got, ok = s2.Get(h)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("entry did not survive a reopen")
	}
	st := s2.Stats()
	if st.Entries != 1 || st.Bytes != int64(len(payload)) {
		t.Fatalf("reopen scan: %+v", st)
	}

	st = s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / 1 put", st)
	}
}

func TestInvalidHashRejected(t *testing.T) {
	s := openTestStore(t, Options{})
	for _, h := range []string{"", "abc", strings.Repeat("Z", 64), "../../../../etc/passwd" + strings.Repeat("a", 41)} {
		if _, ok := s.Get(h); ok {
			t.Fatalf("Get(%q) hit", h)
		}
		if err := s.Put(h, []byte("x")); err == nil {
			t.Fatalf("Put(%q) accepted", h)
		}
	}
}

// TestCorruptEntryQuarantined: a flipped payload bit must read as a
// miss, move the entry to quarantine, and leave the slot writable
// again.
func TestCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, Options{Dir: dir})
	h := testHash(2)
	payload := []byte("precious deterministic result")
	if err := s.Put(h, payload); err != nil {
		t.Fatal(err)
	}

	path := s.objectPath(h)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(h); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry still in place")
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", h)); err != nil {
		t.Fatalf("quarantine copy missing: %v", err)
	}

	// The slot is a plain miss now, and rewritable.
	if _, ok := s.Get(h); ok {
		t.Fatal("hit after quarantine")
	}
	if err := s.Put(h, payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(h); !ok || !bytes.Equal(got, payload) {
		t.Fatal("rewrite after quarantine failed")
	}
}

// TestTruncatedEntryQuarantined: a header shorter than the frame (the
// shape a torn write would have without the rename protocol) is corrupt.
func TestTruncatedEntryQuarantined(t *testing.T) {
	s := openTestStore(t, Options{})
	h := testHash(3)
	if err := s.Put(h, []byte("full entry")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.objectPath(h), []byte("simdstore"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(h); ok {
		t.Fatal("truncated entry served as a hit")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
}

func TestEvictionUnderBudget(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 100)
	s := openTestStore(t, Options{MaxBytes: 250})
	for i := 0; i < 4; i++ {
		if err := s.Put(testHash(10+i), payload); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so eviction order (oldest first) is well defined
		// on filesystems with coarse timestamps.
		time.Sleep(10 * time.Millisecond)
	}
	st := s.Stats()
	if st.Bytes > 250 {
		t.Fatalf("bytes %d over the 250 budget", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	// The newest entry must have survived.
	if _, ok := s.Get(testHash(13)); !ok {
		t.Fatal("newest entry was evicted")
	}
	// The oldest must be gone.
	if _, ok := s.Get(testHash(10)); ok {
		t.Fatal("oldest entry survived a budget of 2.5 entries")
	}
}

func TestOversizedPayloadNotStored(t *testing.T) {
	s := openTestStore(t, Options{MaxBytes: 10})
	if err := s.Put(testHash(4), bytes.Repeat([]byte("y"), 100)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(testHash(4)); ok {
		t.Fatal("payload larger than the whole budget was stored")
	}
}

// TestDegradeOnWriteFailures: ENOSPC-style write failures trip degraded
// mode at the third in a row, not before; operations are then skipped
// without touching the disk except every eighth, which probes it; a
// probe succeeds once the fault clears and the store recovers.
func TestDegradeOnWriteFailures(t *testing.T) {
	ffs := newFaultFS()
	s := openTestStore(t, Options{FS: ffs})
	payload := []byte("p")

	ffs.setFail(func(op, path string) error {
		if op == "write" {
			return syscall.ENOSPC
		}
		return nil
	})
	for i := 0; i < 3; i++ {
		if s.Degraded() {
			t.Fatalf("store degraded after %d write failures", i)
		}
		if err := s.Put(testHash(20+i), payload); err == nil {
			t.Fatal("Put succeeded under an injected ENOSPC")
		}
	}
	if !s.Degraded() {
		t.Fatal("store not degraded after 3 write failures")
	}
	if st := s.Stats(); st.DegradedEvents != 1 || st.PutErrors != 3 {
		t.Fatalf("stats %+v", st)
	}

	// Degraded: operations 1-7 are skipped entirely, the 8th probes the
	// still-broken disk and fails, and so on for the next eight.
	for round := 0; round < 2; round++ {
		before := ffs.opCount()
		for i := 0; i < 7; i++ {
			if err := s.Put(testHash(30+i), payload); err != nil {
				t.Fatalf("skipped put returned %v", err)
			}
		}
		if ffs.opCount() != before {
			t.Fatal("degraded put touched the filesystem outside a probe turn")
		}
		if err := s.Put(testHash(37), payload); err == nil {
			t.Fatal("probe put succeeded under an injected ENOSPC")
		}
		if ffs.opCount() == before {
			t.Fatal("the 8th degraded put did not probe the filesystem")
		}
		if !s.Degraded() {
			t.Fatal("a failed probe recovered the store")
		}
	}
	if st := s.Stats(); st.Skipped != 14 {
		t.Fatalf("skipped = %d, want 14", st.Skipped)
	}

	// Fault clears; the next 7 operations are still skipped, the 8th is
	// a probe turn and recovers the store.
	ffs.setFail(nil)
	for i := 0; i < 7; i++ {
		s.Put(testHash(40+i), payload)
	}
	if !s.Degraded() {
		t.Fatal("store recovered outside a probe turn")
	}
	if err := s.Put(testHash(47), payload); err != nil {
		t.Fatalf("probe put failed: %v", err)
	}
	if s.Degraded() {
		t.Fatal("store still degraded after a successful probe")
	}
	if _, ok := s.Get(testHash(47)); !ok {
		t.Fatal("probe-written entry unreadable")
	}
}

// TestDirectoryAtObjectPathFailsPublish: a directory where an entry's
// object file belongs fails the publish with EEXIST, as os.Rename refused
// it (the store's rename is rename(2) alone, so the store refuses it from
// its own stat), and leaves the directory and no temporary file behind;
// three such publishes degrade the store like any write failure.
func TestDirectoryAtObjectPathFailsPublish(t *testing.T) {
	s := openTestStore(t, Options{})
	for i := 0; i < 3; i++ {
		h := testHash(60 + i)
		if err := os.MkdirAll(filepath.Join(s.objectPath(h), "sub"), 0o755); err != nil {
			t.Fatal(err)
		}
		if s.Degraded() {
			t.Fatalf("store degraded after %d failed publishes", i)
		}
		if err := s.Put(h, []byte("p")); !errors.Is(err, syscall.EEXIST) {
			t.Fatalf("publish over a directory: %v, want EEXIST", err)
		}
		if st, err := os.Stat(s.objectPath(h)); err != nil || !st.IsDir() {
			t.Fatalf("the directory at the object path: %v, %v", st, err)
		}
	}
	if st := s.Stats(); !s.Degraded() || st.DegradedEvents != 1 || st.PutErrors != 3 || st.Entries != 0 {
		t.Fatalf("after three publishes over directories: degraded %v, stats %+v", s.Degraded(), st)
	}
	if tmps, _ := filepath.Glob(filepath.Join(s.opts.Dir, "tmp-*")); len(tmps) != 0 {
		t.Errorf("temporary files left behind: %v", tmps)
	}
}

// TestDegradeOnReadFailures: infrastructure errors on the read side
// (EIO, permission loss) count toward degradation too — but a plain
// missing entry never does.
func TestDegradeOnReadFailures(t *testing.T) {
	ffs := newFaultFS()
	s := openTestStore(t, Options{FS: ffs})

	// Healthy misses don't degrade, ever.
	for i := 0; i < 10; i++ {
		s.Get(testHash(40 + i))
	}
	if s.Degraded() {
		t.Fatal("plain misses tripped degradation")
	}

	ffs.setFail(func(op, path string) error {
		if op == "readfile" && strings.Contains(path, "objects") {
			return syscall.EIO
		}
		return nil
	})
	for i := 0; i < 3; i++ {
		if s.Degraded() {
			t.Fatalf("store degraded after %d EIO reads", i)
		}
		s.Get(testHash(50 + i))
	}
	if !s.Degraded() {
		t.Fatal("3 EIO reads did not degrade the store")
	}

	ffs.setFail(nil)
	// Gets 1-7 are skipped, the 8th probes and recovers.
	for i := 0; i < 7; i++ {
		s.Get(testHash(60 + i))
	}
	if !s.Degraded() {
		t.Fatal("store recovered outside a probe turn")
	}
	s.Get(testHash(67))
	if s.Degraded() {
		t.Fatal("store did not recover after reads healed")
	}
}

// TestCorruptionBurstDegrades: a run of checksum failures is a failing
// disk and must degrade like any infrastructure fault, at the third.
func TestCorruptionBurstDegrades(t *testing.T) {
	s := openTestStore(t, Options{})
	for i := 0; i < 3; i++ {
		if err := s.Put(testHash(70+i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		h := testHash(70 + i)
		if err := os.WriteFile(s.objectPath(h), []byte(entryMagic+strings.Repeat("0", 64)+"\nnot the payload"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if s.Degraded() {
			t.Fatalf("store degraded after %d corrupt reads", i)
		}
		s.Get(testHash(70 + i))
	}
	if !s.Degraded() {
		t.Fatal("corruption burst did not degrade the store")
	}
	if st := s.Stats(); st.Quarantined != 3 {
		t.Fatalf("quarantined = %d, want 3", st.Quarantined)
	}
}

// TestSharedDirTwoStores: two Store instances on one directory — the
// two-daemons-one-host deployment — put and get concurrently under
// -race, exercising the flock-guarded publish and eviction paths.
func TestSharedDirTwoStores(t *testing.T) {
	dir := t.TempDir()
	a := openTestStore(t, Options{Dir: dir})
	b := openTestStore(t, Options{Dir: dir})

	const n = 32
	payload := func(i int) []byte { return []byte(fmt.Sprintf("result-%03d", i)) }
	var wg sync.WaitGroup
	for _, s := range []*Store{a, b} {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				// Both daemons race to publish the same content — the
				// concurrent-downloader shape. Same hash, same bytes.
				if err := s.Put(testHash(100+i), payload(i)); err != nil {
					t.Errorf("put %d: %v", i, err)
				}
				s.Get(testHash(100 + i%max(i, 1)))
			}
		}()
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		for _, s := range []*Store{a, b} {
			got, ok := s.Get(testHash(100 + i))
			if !ok || !bytes.Equal(got, payload(i)) {
				t.Fatalf("entry %d: (%q, %v)", i, got, ok)
			}
		}
	}
	if a.Degraded() || b.Degraded() {
		t.Fatal("healthy shared-dir operation degraded a store")
	}
}

// TestPutRepublishDoesNotDoubleCount: republishing an existing hash
// (journal replay, or a twin daemon racing on the same content)
// replaces the object file in place — entry and byte accounting must
// track the disk, not the number of Put calls.
func TestPutRepublishDoesNotDoubleCount(t *testing.T) {
	s := openTestStore(t, Options{Dir: t.TempDir()})
	payload := []byte("same bytes every time")
	for i := 0; i < 5; i++ {
		if err := s.Put(testHash(1), payload); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Puts != 5 {
		t.Fatalf("puts = %d, want 5", st.Puts)
	}
	if st.Entries != 1 || st.Bytes != int64(len(payload)) {
		t.Fatalf("entries=%d bytes=%d after republish, want 1/%d", st.Entries, st.Bytes, len(payload))
	}

	// Replacing with a different-sized payload accounts for the delta.
	bigger := append(append([]byte(nil), payload...), []byte("-grown")...)
	if err := s.Put(testHash(1), bigger); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Entries != 1 || st.Bytes != int64(len(bigger)) {
		t.Fatalf("entries=%d bytes=%d after resize, want 1/%d", st.Entries, st.Bytes, len(bigger))
	}
}

// TestSharedDirNeverDoubleCountsBytes: two daemons hammer the same
// content addresses in one directory. Only the publisher that actually
// creates an entry may count it, so the combined accounting equals the
// on-disk truth exactly — and no single daemon's view ever exceeds it.
func TestSharedDirNeverDoubleCountsBytes(t *testing.T) {
	dir := t.TempDir()
	a := openTestStore(t, Options{Dir: dir})
	b := openTestStore(t, Options{Dir: dir})

	const n, rounds = 16, 4
	payload := func(i int) []byte { return []byte(fmt.Sprintf("shared-result-%03d", i)) }
	var wg sync.WaitGroup
	for _, s := range []*Store{a, b} {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < n; i++ {
					if err := s.Put(testHash(500+i), payload(i)); err != nil {
						t.Errorf("put %d: %v", i, err)
					}
				}
			}
		}()
	}
	wg.Wait()

	diskEntries, diskBytes := a.scan()
	if diskEntries != n {
		t.Fatalf("disk holds %d entries, want %d", diskEntries, n)
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.Entries+sb.Entries != diskEntries || sa.Bytes+sb.Bytes != diskBytes {
		t.Fatalf("combined accounting entries=%d bytes=%d, disk truth %d/%d (a=%+d/%d b=%d/%d)",
			sa.Entries+sb.Entries, sa.Bytes+sb.Bytes, diskEntries, diskBytes,
			sa.Entries, sa.Bytes, sb.Entries, sb.Bytes)
	}
	for name, st := range map[string]Stats{"a": sa, "b": sb} {
		if st.Entries > diskEntries || st.Bytes > diskBytes {
			t.Fatalf("store %s counted entries=%d bytes=%d, more than disk %d/%d",
				name, st.Entries, st.Bytes, diskEntries, diskBytes)
		}
		if st.Puts != n*rounds {
			t.Fatalf("store %s puts = %d, want %d", name, st.Puts, n*rounds)
		}
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open accepted an empty directory")
	}
}
