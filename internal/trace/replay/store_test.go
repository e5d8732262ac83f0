package replay

import (
	"bytes"
	"context"
	"errors"
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
	return recordInsts(insts)
}

// sameTrace compares two traces by what they are: their trr1 payloads.
func sameTrace(a, b *Trace) bool { return bytes.Equal(Encode(a), Encode(b)) }

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
