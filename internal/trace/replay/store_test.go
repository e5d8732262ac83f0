package replay

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rebalance/internal/isa"
)

func mustStore(t testing.TB, opts Options) *Store {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyTrace builds an n-instruction trace whose content depends on tag, so
// tests can tell cached values apart.
func tinyTrace(tag byte, n int) *Trace {
	insts := make([]isa.Inst, n)
	pc := isa.Addr(0x1000 * uint64(tag+1))
	for i := range insts {
		insts[i] = isa.Inst{PC: pc, Size: 4, Kind: isa.KindOther, Serial: i%2 == 0}
		pc += 4
	}
	return NewTrace(insts)
}

func sameTrace(a, b *Trace) bool { return reflect.DeepEqual(a.insts, b.insts) }

func TestStoreLRUBounds(t *testing.T) {
	s := mustStore(t, Options{MaxEntries: 2})
	for i := 0; i < 3; i++ {
		s.Put(fmt.Sprintf("tr1-%d", i), tinyTrace(byte(i), 16))
	}
	st := s.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats after overflow = %+v, want 2 entries and 1 eviction", st)
	}
	if _, ok := s.Get("tr1-0"); ok {
		t.Fatal("oldest entry survived past MaxEntries")
	}
	if _, ok := s.Get("tr1-2"); !ok {
		t.Fatal("newest entry was evicted")
	}
}

func TestStoreByteBoundEviction(t *testing.T) {
	one := tinyTrace(0, 100).MemBytes()
	s := mustStore(t, Options{MaxBytes: 2*one + 1})
	s.Put("tr1-a", tinyTrace(0, 100))
	s.Put("tr1-b", tinyTrace(1, 100))
	s.Put("tr1-c", tinyTrace(2, 100))
	st := s.Stats()
	if st.Entries != 2 || st.Bytes > 2*one+1 {
		t.Fatalf("stats after byte overflow = %+v, want 2 entries within the byte bound", st)
	}
}

func TestStoreOversizedTraceBypassesMemory(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(t, Options{MaxBytes: 64, Dir: dir})
	big := tinyTrace(0, 1000)
	s.Put("tr1-big", big)
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("oversized trace admitted to the memory tier: %+v", st)
	}
	// The disk tier still serves it.
	got, ok := mustStore(t, Options{Dir: dir}).Get("tr1-big")
	if !ok || !sameTrace(got, big) {
		t.Fatal("oversized trace not served from the disk tier")
	}
}

func TestStoreDiskWarmRestart(t *testing.T) {
	dir := t.TempDir()
	want := tinyTrace(7, 256)
	first := mustStore(t, Options{Dir: dir})
	tr, hit, err := first.Do(context.Background(), "tr1-warm", func() (*Trace, error) { return want, nil })
	if err != nil || hit || !sameTrace(tr, want) {
		t.Fatalf("cold Do = (hit=%v, err=%v)", hit, err)
	}

	// A fresh store over the same directory — the warm-restart shape — must
	// serve the coordinate from disk without regenerating.
	second := mustStore(t, Options{Dir: dir})
	tr, hit, err = second.Do(context.Background(), "tr1-warm", func() (*Trace, error) {
		return nil, errors.New("regenerated after restart")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !hit || !sameTrace(tr, want) {
		t.Fatal("warm restart did not serve the stored trace")
	}
	st := second.Stats()
	if st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("warm-restart stats = %+v, want 1 disk hit and 0 misses", st)
	}
}

func TestStoreRemove(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(t, Options{Dir: dir})
	s.Put("tr1-gone", tinyTrace(4, 16))
	s.Remove("tr1-gone")
	if _, ok := s.Get("tr1-gone"); ok {
		t.Fatal("removed key still served from memory")
	}
	if _, err := os.Stat(filepath.Join(dir, "tr1-gone")); !os.IsNotExist(err) {
		t.Fatal("removed key's disk file survived")
	}
}

func TestStoreRejectsPathEscapingKeys(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(t, Options{Dir: dir})
	for _, key := range []string{"", ".", "..", "a/b", `a\b`, "x.tmp"} {
		s.Put(key, tinyTrace(0, 4))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("invalid key wrote disk file %q", e.Name())
	}
}
