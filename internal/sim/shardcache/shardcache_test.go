package shardcache

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

func mustNew(t *testing.T, opts Options) *Cache {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDiskTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1 := mustNew(t, Options{Dir: dir})
	c1.Put("sc1-abc", []byte("payload"))

	// A fresh cache over the same directory — the restart scenario.
	c2 := mustNew(t, Options{Dir: dir})
	got, ok := c2.Get("sc1-abc")
	if !ok || string(got) != "payload" {
		t.Fatalf("disk tier miss after restart: %q, %v", got, ok)
	}
	if s := c2.Stats(); s.DiskHits != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want the hit attributed to disk", s)
	}
	// The disk hit was promoted: a second Get is a memory hit.
	if _, ok := c2.Get("sc1-abc"); !ok {
		t.Fatal("promoted entry missing from memory tier")
	}
	if s := c2.Stats(); s.DiskHits != 1 {
		t.Errorf("second hit went to disk again: %+v", s)
	}
}

func TestCorruptDiskEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c := mustNew(t, Options{Dir: dir})
	c.Put("key1", []byte("payload"))

	corrupt := func(mutate func(p string)) {
		t.Helper()
		mutate(filepath.Join(dir, "key1"))
		fresh := mustNew(t, Options{Dir: dir})
		if _, ok := fresh.Get("key1"); ok {
			t.Error("corrupt disk entry served as a hit")
		}
		if _, err := os.Stat(filepath.Join(dir, "key1")); !os.IsNotExist(err) {
			t.Error("corrupt disk entry was not deleted")
		}
	}
	// Flipped payload byte: checksum mismatch.
	corrupt(func(p string) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	// Truncated below the checksum length.
	c.Put("key1", []byte("payload"))
	corrupt(func(p string) {
		if err := os.WriteFile(p, []byte("short"), 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDoSingleflight(t *testing.T) {
	c := mustNew(t, Options{})
	var computes atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	const followers = 7
	results := make([][]byte, followers+1)
	errs := make([]error, followers+1)
	hits := make([]bool, followers+1)
	var wg sync.WaitGroup
	run := func(i int) {
		defer wg.Done()
		results[i], hits[i], errs[i] = c.Do(context.Background(), "key", func() ([]byte, error) {
			computes.Add(1)
			close(started)
			<-release
			return []byte("value"), nil
		})
	}
	wg.Add(1)
	go run(0)
	<-started // the leader is inside compute; everyone else must wait on it
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go run(i)
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times for one key, want exactly 1", n)
	}
	nHits := 0
	for i := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if string(results[i]) != "value" {
			t.Errorf("caller %d got %q", i, results[i])
		}
		if hits[i] {
			nHits++
		}
	}
	if nHits != followers {
		t.Errorf("%d callers reported a hit, want %d (everyone but the leader)", nHits, followers)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != followers {
		t.Errorf("stats = %+v, want 1 miss / %d hits", s, followers)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := mustNew(t, Options{Dir: t.TempDir()})
	boom := fmt.Errorf("boom")
	if _, _, err := c.Do(context.Background(), "key", func() ([]byte, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure must not have been cached in either tier.
	var computes atomic.Int64
	val, hit, err := c.Do(context.Background(), "key", func() ([]byte, error) {
		computes.Add(1)
		return []byte("ok"), nil
	})
	if err != nil || hit || string(val) != "ok" || computes.Load() != 1 {
		t.Fatalf("recompute after error: val=%q hit=%v err=%v computes=%d", val, hit, err, computes.Load())
	}
}

// TestDoFollowerHonorsOwnContext: a follower blocked on an in-flight
// compute must return promptly when its own context is cancelled, not
// sit out the leader's compute.
func TestDoFollowerHonorsOwnContext(t *testing.T) {
	c := mustNew(t, Options{})
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _, _ = c.Do(context.Background(), "key", func() ([]byte, error) {
			close(started)
			<-release
			return []byte("v"), nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "key", func() ([]byte, error) { return []byte("v"), nil })
		done <- err
	}()
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("follower returned %v, want its own context.Canceled", err)
	}
	close(release) // leader completes normally afterwards
}

// TestDoFollowerSurvivesLeaderFailure: a leader's error — e.g. its own
// cancelled context aborting the compute — must not poison followers;
// the follower re-enters and computes under its own context.
func TestDoFollowerSurvivesLeaderFailure(t *testing.T) {
	c := mustNew(t, Options{})
	leaderStarted := make(chan struct{})
	leaderFail := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "key", func() ([]byte, error) {
			close(leaderStarted)
			<-leaderFail
			return nil, context.Canceled // the leader's request was cancelled
		})
		leaderDone <- err
	}()
	<-leaderStarted

	var followerComputes atomic.Int64
	followerDone := make(chan struct{})
	var val []byte
	var hit bool
	var err error
	go func() {
		defer close(followerDone)
		val, hit, err = c.Do(context.Background(), "key", func() ([]byte, error) {
			followerComputes.Add(1)
			return []byte("recovered"), nil
		})
	}()
	close(leaderFail)
	if lerr := <-leaderDone; lerr != context.Canceled {
		t.Fatalf("leader error = %v", lerr)
	}
	<-followerDone
	if err != nil || string(val) != "recovered" {
		t.Fatalf("follower adopted the leader's failure: val=%q hit=%v err=%v", val, hit, err)
	}
	if followerComputes.Load() != 1 {
		t.Errorf("follower computes = %d, want 1", followerComputes.Load())
	}
}

// TestOversizedReplacementEvictsStaleValue: replacing a resident entry
// with a value over MaxBytes must drop the stale entry rather than admit
// the oversized one or keep serving superseded bytes — and the byte
// bound must hold throughout.
func TestOversizedReplacementEvictsStaleValue(t *testing.T) {
	c := mustNew(t, Options{MaxBytes: 10})
	c.Put("k", []byte("old"))
	c.Put("other", []byte("x"))
	c.Put("k", make([]byte, 64)) // over the bound
	if _, ok := c.Get("k"); ok {
		t.Error("oversized replacement left k resident")
	}
	if _, ok := c.Get("other"); !ok {
		t.Error("oversized replacement evicted an unrelated entry")
	}
	if s := c.Stats(); s.Bytes > 10 {
		t.Errorf("bytes = %d exceeds bound 10 after oversized replacement", s.Bytes)
	}
}

func TestDoServesDiskTier(t *testing.T) {
	dir := t.TempDir()
	mustNew(t, Options{Dir: dir}).Put("key", []byte("stored"))
	c := mustNew(t, Options{Dir: dir})
	val, hit, err := c.Do(context.Background(), "key", func() ([]byte, error) {
		t.Fatal("compute ran despite a disk-tier entry")
		return nil, nil
	})
	if err != nil || !hit || string(val) != "stored" {
		t.Fatalf("val=%q hit=%v err=%v", val, hit, err)
	}
}

func TestConcurrentMixedOperations(t *testing.T) {
	c := mustNew(t, Options{MaxEntries: 8, MaxBytes: 1 << 10, Dir: t.TempDir()})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("key%d", i%13)
				switch i % 4 {
				case 0:
					c.Put(key, []byte(key))
				case 1:
					if v, ok := c.Get(key); ok && string(v) != key {
						t.Errorf("Get(%s) = %q", key, v)
					}
				case 2:
					v, _, err := c.Do(context.Background(), key, func() ([]byte, error) { return []byte(key), nil })
					if err != nil || string(v) != key {
						t.Errorf("Do(%s) = %q, %v", key, v, err)
					}
				case 3:
					c.Remove(key)
				}
			}
		}(g)
	}
	wg.Wait()
}
