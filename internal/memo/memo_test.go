package memo

// Satellite coverage for the content-addressed memo cache: concurrent
// identical submissions execute once (singleflight), a cache hit returns
// bytes identical to a fresh computation, and corrupted or truncated entries
// are detected by the integrity header and recomputed rather than served.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDoSingleflight: N concurrent Do calls for the same key run compute
// exactly once; every caller sees the same bytes, and exactly one caller is
// the (miss-counted) leader.
func TestDoSingleflight(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	compute := func(ctx context.Context) ([]byte, error) {
		computes.Add(1)
		close(started)
		<-release // hold the flight open until every follower has joined
		return []byte(`{"v":42}`), nil
	}

	const callers = 8
	var (
		wg   sync.WaitGroup
		vals [callers][]byte
		hits [callers]bool
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[0], hits[0], _ = s.Do(context.Background(), "k", compute)
	}()
	<-started // the leader owns the flight; followers must join it
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], hits[i], _ = s.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
				t.Error("follower ran compute despite in-flight leader")
				return nil, nil
			})
		}(i)
	}
	// Wait until all followers are parked on the flight before releasing.
	for {
		st := s.Stats()
		if st.FlightHits == callers-1 {
			break
		}
	}
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	leader := 0
	for i := range vals {
		if !bytes.Equal(vals[i], []byte(`{"v":42}`)) {
			t.Fatalf("caller %d got %q", i, vals[i])
		}
		if !hits[i] {
			leader++
		}
	}
	if leader != 1 {
		t.Fatalf("%d callers reported a miss, want exactly 1 (the leader)", leader)
	}
	st := s.Stats()
	if st.Misses != 1 || st.FlightHits != callers-1 {
		t.Fatalf("stats misses=%d flightHits=%d, want 1 and %d", st.Misses, st.FlightHits, callers-1)
	}
}

// TestHitBytesIdentical: the bytes served by a hit — same store and after a
// reopen — are byte-identical to the fresh computation's.
func TestHitBytesIdentical(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	fresh := []byte(`{"workload":"mcf","cycles":123456,"cpi":1.2345678901234567}`)
	got, hit, err := s.Do(context.Background(), "cell", func(ctx context.Context) ([]byte, error) {
		return fresh, nil
	})
	if err != nil || hit || !bytes.Equal(got, fresh) {
		t.Fatalf("fresh Do: val=%q hit=%v err=%v", got, hit, err)
	}
	again, hit, err := s.Do(context.Background(), "cell", func(ctx context.Context) ([]byte, error) {
		t.Error("compute ran on a warm key")
		return nil, nil
	})
	if err != nil || !hit || !bytes.Equal(again, fresh) {
		t.Fatalf("warm Do: val=%q hit=%v err=%v", again, hit, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A reopened store (fresh process) serves the same bytes from disk.
	s2 := mustOpen(t, dir, Options{})
	reopened, ok := s2.Get("cell")
	if !ok || !bytes.Equal(reopened, fresh) {
		t.Fatalf("reopened Get: val=%q ok=%v", reopened, ok)
	}
}

// TestCorruptionDetected: truncated values, flipped bits, mangled headers,
// and empty files all fail the integrity check, count as misses, and are
// recomputed.
func TestCorruptionDetected(t *testing.T) {
	val := []byte(`{"v":"payload-that-matters"}`)
	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bitflip", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-3] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"header-mangled", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("{not json\n"+string(val)), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty", func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{})
			if _, _, err := s.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
				return val, nil
			}); err != nil {
				t.Fatal(err)
			}
			c.corrupt(t, filepath.Join(dir, "k"+entrySuffix))
			var recomputed atomic.Int64
			got, hit, err := s.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
				recomputed.Add(1)
				return val, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if hit || recomputed.Load() != 1 {
				t.Fatalf("corrupted entry served as a hit (hit=%v recomputed=%d)", hit, recomputed.Load())
			}
			if !bytes.Equal(got, val) {
				t.Fatalf("recompute returned %q, want %q", got, val)
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("corrupt counter %d, want 1", st.Corrupt)
			}
			// The rewritten entry must verify again.
			if fixed, ok := s.Get("k"); !ok || !bytes.Equal(fixed, val) {
				t.Fatalf("rewritten entry: val=%q ok=%v", fixed, ok)
			}
		})
	}
}

// TestComputeErrorNotCached: a failed compute caches nothing; the next Do
// retries and can succeed.
func TestComputeErrorNotCached(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	boom := fmt.Errorf("transient blip")
	if _, _, err := s.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
		return nil, boom
	}); err != boom {
		t.Fatalf("err = %v, want the compute error", err)
	}
	got, hit, err := s.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
		return []byte(`{"ok":true}`), nil
	})
	if err != nil || hit || string(got) != `{"ok":true}` {
		t.Fatalf("retry Do: val=%q hit=%v err=%v", got, hit, err)
	}
}

// TestEvictionLRU: past MaxEntries the least-recently-used entry is evicted,
// and touching an entry protects it.
func TestEvictionLRU(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{MaxEntries: 2})
	put := func(key string) {
		t.Helper()
		if err := s.Put(key, []byte(`{"k":"`+key+`"}`)); err != nil {
			t.Fatal(err)
		}
	}
	put("a")
	put("b")
	if _, ok := s.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing before eviction")
	}
	put("c")
	if _, ok := s.Get("b"); ok {
		t.Fatal("b survived eviction despite being LRU")
	}
	if _, ok := s.Get("a"); !ok {
		t.Fatal("a evicted despite recent touch")
	}
	if st := s.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats evictions=%d entries=%d, want 1 and 2", st.Evictions, st.Entries)
	}
	if _, err := os.Stat(filepath.Join(dir, "b"+entrySuffix)); !os.IsNotExist(err) {
		t.Fatalf("evicted entry file still on disk (err=%v)", err)
	}
}

// TestIndexRoundTrip: Close persists the index; Open restores entries and
// recency, and reconciles against files added or removed behind its back.
func TestIndexRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for _, key := range []string{"a", "b", "c"} {
		if err := s.Put(key, []byte(`{"k":"`+key+`"}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate out-of-band changes: one entry vanishes, the reopened store
	// must drop it; the others must still verify.
	if err := os.Remove(filepath.Join(dir, "b"+entrySuffix)); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	if st := s2.Stats(); st.Entries != 2 {
		t.Fatalf("reopened entries = %d, want 2", st.Entries)
	}
	if _, ok := s2.Get("a"); !ok {
		t.Fatal("a missing after reopen")
	}
	if _, ok := s2.Get("b"); ok {
		t.Fatal("b resurrected after out-of-band delete")
	}
	// A store dir with entry files but no index (crash before Close) still
	// opens and serves.
	if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
		t.Fatal(err)
	}
	s3 := mustOpen(t, dir, Options{})
	if got, ok := s3.Get("c"); !ok || string(got) != `{"k":"c"}` {
		t.Fatalf("index-less reopen: val=%q ok=%v", got, ok)
	}
}

// TestOpenSweepsOrphanedTempFiles: a crash inside Put or Close leaves a
// temp file behind; the next Open deletes both kinds and leaves the entries
// and the index-derived stats exactly as they were.
func TestOpenSweepsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for _, key := range []string{"a", "b"} {
		if err := s.Put(key, []byte(`{"k":"`+key+`"}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := mustOpen(t, dir, Options{}).Stats()

	orphans := []string{tmpPrefix + "123456", tmpPrefix + "index-654321"}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(`{"schema":"simcache/v1","ke`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2 := mustOpen(t, dir, Options{})
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived Open (err=%v)", name, err)
		}
	}
	if got := s2.Stats(); got != want {
		t.Errorf("stats after sweeping orphans = %+v, want %+v", got, want)
	}
	for _, key := range []string{"a", "b"} {
		if got, ok := s2.Get(key); !ok || string(got) != `{"k":"`+key+`"}` {
			t.Errorf("entry %s after sweep: val=%q ok=%v", key, got, ok)
		}
	}
}

// TestDoReturnsPutError: when the entry cannot be written, the leader gets
// the computed value and the write error, and nothing is cached.
func TestDoReturnsPutError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := mustOpen(t, dir, Options{})
	// Removing the directory makes every later temp-file create fail, even
	// for root, which read-only permissions would not stop.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	val, hit, err := s.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
		return []byte(`{"v":1}`), nil
	})
	if err == nil {
		t.Fatal("Do swallowed the Put failure")
	}
	if hit || string(val) != `{"v":1}` {
		t.Fatalf("Do with failing Put: val=%q hit=%v, want the computed value and no hit", val, hit)
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("failed Put left %d entries in the index", st.Entries)
	}
}

// TestClearRemovesOnlyStoreFiles: Clear empties the store but keeps the
// directory and every file that is not the store's own.
func TestClearRemovesOnlyStoreFiles(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Put("a", []byte(`{"k":"a"}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(dir, "notes.txt")
	for _, path := range []string{foreign, filepath.Join(dir, tmpPrefix+"1")} {
		if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats after Clear: %+v", st)
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("entry survived Clear")
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0].Name() != "notes.txt" {
		var got []string
		for _, de := range names {
			got = append(got, de.Name())
		}
		t.Fatalf("after Clear the directory holds %v, want only notes.txt", got)
	}
}
