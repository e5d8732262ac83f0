package shardcache

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
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
