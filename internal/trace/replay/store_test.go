package replay

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
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

func TestStoreDoSingleflight(t *testing.T) {
	s := mustStore(t, Options{})
	const key = "tr1-flight"
	var generated atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]*Trace, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, _, err := s.Do(context.Background(), key, func() (*Trace, error) {
				generated.Add(1)
				<-release
				return tinyTrace(1, 64), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = tr
		}(i)
	}
	// Whatever the interleaving — followers riding the leader's flight, or
	// late arrivals hitting the memory tier — one generation serves all.
	close(release)
	wg.Wait()
	if n := generated.Load(); n != 1 {
		t.Fatalf("%d generations for one key under concurrency, want exactly 1", n)
	}
	for i, tr := range results {
		if tr != results[0] {
			t.Fatalf("caller %d got a different trace instance; singleflight must share the leader's", i)
		}
	}
}

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

func TestStoreGenerateErrorNotCached(t *testing.T) {
	s := mustStore(t, Options{Dir: t.TempDir()})
	boom := errors.New("boom")
	_, _, err := s.Do(context.Background(), "tr1-err", func() (*Trace, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want the generation error", err)
	}
	want := tinyTrace(9, 32)
	tr, hit, err := s.Do(context.Background(), "tr1-err", func() (*Trace, error) { return want, nil })
	if err != nil || hit || !sameTrace(tr, want) {
		t.Fatalf("Do after a failed generation = (hit=%v, err=%v), want a fresh successful generation", hit, err)
	}
}

func TestStoreFollowerOutlivesLeaderFailure(t *testing.T) {
	s := mustStore(t, Options{})
	const key = "tr1-leaderfail"
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, leaderErr = s.Do(context.Background(), key, func() (*Trace, error) {
			close(leaderIn)
			<-leaderGo
			return nil, errors.New("leader failed")
		})
	}()
	<-leaderIn
	want := tinyTrace(3, 16)
	done := make(chan struct{})
	var tr *Trace
	var hit bool
	var err error
	go func() {
		defer close(done)
		tr, hit, err = s.Do(context.Background(), key, func() (*Trace, error) { return want, nil })
	}()
	close(leaderGo)
	<-done
	wg.Wait()
	if leaderErr == nil {
		t.Fatal("leader's own failure was swallowed")
	}
	if err != nil || hit || !sameTrace(tr, want) {
		t.Fatalf("follower after leader failure = (hit=%v, err=%v), want its own fresh generation", hit, err)
	}
}

func TestStoreFollowerCancellation(t *testing.T) {
	s := mustStore(t, Options{})
	const key = "tr1-cancel"
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	go func() {
		_, _, _ = s.Do(context.Background(), key, func() (*Trace, error) {
			close(leaderIn)
			<-leaderGo
			return tinyTrace(0, 8), nil
		})
	}()
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := s.Do(ctx, key, func() (*Trace, error) { return tinyTrace(0, 8), nil })
	close(leaderGo)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower = %v, want context.Canceled", err)
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
