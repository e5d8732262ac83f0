package tiercache

// The one test wall for the tiered cache. Every behaviour is checked once,
// in wall, and run over two codecs: an identity bytes codec, shaped like the
// shard result cache's (a record is stored and charged as its bytes), and a
// strict-decoding codec shaped like the trace store's — a pointer value
// whose memory charge differs from its encoded length and whose Decode
// rejects anything Encode could not have written.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// Bytes is the identity codec: an opaque byte string is its own disk
// payload, charged at its length.
type Bytes struct{}

func (Bytes) Size(v []byte) int64                { return int64(len(v)) }
func (Bytes) Encode(v []byte) []byte             { return v }
func (Bytes) Decode(data []byte) ([]byte, error) { return data, nil }

// rec is the strict codec's value: charged recCharge bytes per body byte
// in memory, framed as "rec1" + one length byte + body on disk.
type rec struct{ body string }

const recCharge = 8

type strictCodec struct{}

func (strictCodec) Size(r *rec) int64 { return recCharge * int64(len(r.body)) }
func (strictCodec) Encode(r *rec) []byte {
	return append([]byte{'r', 'e', 'c', '1', byte(len(r.body))}, r.body...)
}
func (strictCodec) Decode(data []byte) (*rec, error) {
	if len(data) < 5 || string(data[:4]) != "rec1" || int(data[4]) != len(data)-5 {
		return nil, errors.New("strict: malformed rec1 payload")
	}
	return &rec{body: string(data[5:])}, nil
}

// kit is what wall needs to know about a value type: how to make a value
// of a given memory charge, and how to compare two.
type kit[V any] struct {
	codec Codec[V]
	// mk returns a value whose body is tag repeated out to a Size of
	// exactly size (size is a multiple of unit).
	mk   func(tag byte, size int64) V
	unit int64
	same func(a, b V) bool
}

var (
	bytesKit = kit[[]byte]{
		codec: Bytes{},
		mk:    func(tag byte, size int64) []byte { return bytes.Repeat([]byte{tag}, int(size)) },
		unit:  1,
		same:  bytes.Equal,
	}
	strictKit = kit[*rec]{
		codec: strictCodec{},
		mk: func(tag byte, size int64) *rec {
			return &rec{body: strings.Repeat(string(tag), int(size/recCharge))}
		},
		unit: recCharge,
		same: func(a, b *rec) bool { return a != nil && b != nil && a.body == b.body },
	}
)

func TestWall(t *testing.T) {
	t.Run("bytes", func(t *testing.T) { wall(t, bytesKit) })
	t.Run("strict", func(t *testing.T) { wall(t, strictKit) })
}

func TestNewRejectsNonPositiveBounds(t *testing.T) {
	for _, opts := range []Options{{}, {MaxEntries: 1}, {MaxBytes: 1}, {MaxEntries: -1, MaxBytes: 1}} {
		if _, err := New[[]byte](Bytes{}, opts); err == nil {
			t.Errorf("New(%+v) accepted non-positive bounds", opts)
		}
	}
}

// diskFiles lists the regular files under dir.
func diskFiles(t testing.TB, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names
}

func wall[V any](t *testing.T, k kit[V]) {
	u := k.unit
	open := func(t *testing.T, opts Options) *Cache[V] {
		t.Helper()
		if opts.MaxEntries == 0 {
			opts.MaxEntries = 64
		}
		if opts.MaxBytes == 0 {
			opts.MaxBytes = 1 << 20
		}
		c, err := New(k.codec, opts)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ctx := context.Background()

	t.Run("get put replace", func(t *testing.T) {
		c := open(t, Options{})
		if _, ok := c.Get("k1"); ok {
			t.Fatal("empty cache reported a hit")
		}
		c.Put("k1", k.mk('a', 2*u))
		if got, ok := c.Get("k1"); !ok || !k.same(got, k.mk('a', 2*u)) {
			t.Fatalf("Get(k1) = %v, %v", got, ok)
		}
		c.Put("k1", k.mk('b', 5*u))
		if got, _ := c.Get("k1"); !k.same(got, k.mk('b', 5*u)) {
			t.Fatalf("replaced value not served: %v", got)
		}
		if s := c.Stats(); s.Hits != 2 || s.Misses != 1 || s.Entries != 1 || s.Bytes != 5*u {
			t.Errorf("stats = %+v, want 2 hits / 1 miss / 1 entry / %d bytes", s, 5*u)
		}
	})

	t.Run("lru eviction by entries", func(t *testing.T) {
		c := open(t, Options{MaxEntries: 3})
		for i := 0; i < 3; i++ {
			c.Put(fmt.Sprintf("k%d", i), k.mk(byte('0'+i), u))
		}
		c.Get("k0") // refresh k0: k1 is now the coldest
		c.Put("k3", k.mk('3', u))
		if _, ok := c.Get("k1"); ok {
			t.Error("coldest entry k1 survived eviction")
		}
		for _, key := range []string{"k0", "k2", "k3"} {
			if _, ok := c.Get(key); !ok {
				t.Errorf("entry %s was evicted, want k1", key)
			}
		}
		if s := c.Stats(); s.Evictions != 1 || s.Entries != 3 {
			t.Errorf("stats = %+v, want 1 eviction / 3 entries", s)
		}
	})

	t.Run("eviction by bytes and oversized values", func(t *testing.T) {
		dir := t.TempDir()
		c := open(t, Options{MaxBytes: 10 * u, Dir: dir})
		c.Put("a", k.mk('a', 4*u))
		c.Put("b", k.mk('b', 4*u))
		c.Put("c", k.mk('c', 4*u)) // 12 units -> evict a
		if s := c.Stats(); s.Bytes > 10*u || s.Entries != 2 || s.Evictions != 1 {
			t.Errorf("stats after byte overflow = %+v, want 2 entries within %d bytes", s, 10*u)
		}
		// An oversized value must not wipe the tier to admit itself — it
		// bypasses memory and is still written to disk.
		huge := k.mk('h', 64*u)
		c.Put("huge", huge)
		if s := c.Stats(); s.Entries != 2 || s.Evictions != 1 {
			t.Errorf("oversized value disturbed the memory tier: %+v", s)
		}
		if got, ok := open(t, Options{Dir: dir}).Get("huge"); !ok || !k.same(got, huge) {
			t.Error("oversized value not served from the disk tier")
		}
		// Replacing a resident entry with an oversized value must drop the
		// stale entry rather than keep serving superseded bytes.
		mem := open(t, Options{MaxBytes: 10 * u})
		mem.Put("k", k.mk('o', 3*u))
		mem.Put("other", k.mk('x', u))
		mem.Put("k", huge)
		if _, ok := mem.Get("k"); ok {
			t.Error("oversized replacement left k resident")
		}
		if _, ok := mem.Get("other"); !ok {
			t.Error("oversized replacement evicted an unrelated entry")
		}
		if s := mem.Stats(); s.Bytes != u {
			t.Errorf("bytes = %d after oversized replacement, want %d", s.Bytes, u)
		}
	})

	t.Run("disk round trip and promotion", func(t *testing.T) {
		dir := t.TempDir()
		want := k.mk('p', 7*u)
		open(t, Options{Dir: dir}).Put("key-abc", want)

		// A fresh cache over the same directory — the restart scenario.
		c := open(t, Options{Dir: dir})
		if got, ok := c.Get("key-abc"); !ok || !k.same(got, want) {
			t.Fatalf("disk tier miss after restart: %v, %v", got, ok)
		}
		if s := c.Stats(); s.DiskHits != 1 || s.Hits != 1 {
			t.Errorf("stats = %+v, want the hit attributed to disk", s)
		}
		// The disk hit was promoted: a second Get is a memory hit.
		if _, ok := c.Get("key-abc"); !ok {
			t.Fatal("promoted entry missing from memory tier")
		}
		if s := c.Stats(); s.DiskHits != 1 || s.Hits != 2 {
			t.Errorf("second hit went to disk again: %+v", s)
		}
		// Do serves the disk tier without computing.
		d := open(t, Options{Dir: dir})
		got, hit, err := d.Do(ctx, "key-abc", func() (V, error) {
			t.Error("compute ran despite a disk-tier entry")
			return want, nil
		})
		if err != nil || !hit || !k.same(got, want) {
			t.Fatalf("Do over a disk entry = (%v, hit=%v, err=%v)", got, hit, err)
		}
		if s := d.Stats(); s.DiskHits != 1 || s.Misses != 0 {
			t.Errorf("Do disk-hit stats = %+v, want 1 disk hit and 0 misses", s)
		}
	})

	t.Run("remove drops both tiers", func(t *testing.T) {
		dir := t.TempDir()
		c := open(t, Options{Dir: dir})
		c.Put("gone", k.mk('g', u))
		c.Remove("gone")
		if _, ok := c.Get("gone"); ok {
			t.Error("removed key still served")
		}
		if files := diskFiles(t, dir); len(files) != 0 {
			t.Errorf("removed key's disk file survived: %v", files)
		}
	})

	t.Run("orphaned temp files swept at startup", func(t *testing.T) {
		dir := t.TempDir()
		open(t, Options{Dir: dir}).Put("keep", k.mk('k', u))
		if err := os.WriteFile(filepath.Join(dir, "keep-12345.tmp"), []byte("torn"), 0o600); err != nil {
			t.Fatal(err)
		}
		open(t, Options{Dir: dir}) // restart: crash leftovers are swept
		if files := diskFiles(t, dir); len(files) != 1 || files[0] != "keep" {
			t.Errorf("dir after restart = %v, want only the completed entry", files)
		}
	})

	t.Run("hostile keys skip disk", func(t *testing.T) {
		dir := t.TempDir()
		c := open(t, Options{Dir: dir})
		for _, key := range []string{"", ".", "..", "a/b", `a\b`, "x.tmp"} {
			c.Put(key, k.mk('v', u))
			if _, _, err := c.Do(ctx, key+"-do", func() (V, error) { return k.mk('v', u), nil }); err != nil {
				t.Fatal(err)
			}
			c.Remove(key)
		}
		// Only the well-formed "-do" keys may have reached the directory,
		// and nothing may have escaped it.
		for _, f := range diskFiles(t, dir) {
			if !strings.HasSuffix(f, "-do") || strings.ContainsAny(f, `/\`) {
				t.Errorf("hostile key reached the disk tier as %q", f)
			}
		}
		if ents, _ := os.ReadDir(filepath.Dir(dir)); len(ents) != 1 {
			t.Errorf("a key escaped the cache directory: parent holds %d entries", len(ents))
		}
	})

	t.Run("singleflight", func(t *testing.T) {
		c := open(t, Options{})
		var computes atomic.Int64
		release := make(chan struct{})
		started := make(chan struct{})
		want := k.mk('s', 3*u)

		const followers = 7
		results := make([]V, followers+1)
		errs := make([]error, followers+1)
		hits := make([]bool, followers+1)
		var wg sync.WaitGroup
		run := func(i int) {
			defer wg.Done()
			results[i], hits[i], errs[i] = c.Do(ctx, "key", func() (V, error) {
				computes.Add(1)
				close(started)
				<-release
				return want, nil
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
			if !k.same(results[i], want) {
				t.Errorf("caller %d got %v", i, results[i])
			}
			if hits[i] {
				nHits++
			}
		}
		if s := c.Stats(); nHits != followers || s.Misses != 1 || s.Hits != followers {
			t.Errorf("%d callers reported a hit, stats = %+v; want %d hits (everyone but the leader) and 1 miss", nHits, s, followers)
		}
	})

	t.Run("lead holds several keys", func(t *testing.T) {
		c := open(t, Options{})
		_, hitA, landA, errA := c.Lead(ctx, "a")
		_, hitB, landB, errB := c.Lead(ctx, "b")
		if hitA || hitB || errA != nil || errB != nil {
			t.Fatalf("Lead on an empty cache = hits (%v, %v), errs (%v, %v)", hitA, hitB, errA, errB)
		}
		followed := make(chan V, 1)
		go func() {
			v, _, _ := c.Do(ctx, "b", func() (V, error) {
				t.Error("follower computed while the key was led")
				return k.mk('x', u), nil
			})
			followed <- v
		}()
		landA(k.mk('a', u), nil)
		landB(k.mk('b', u), nil)
		if got := <-followed; !k.same(got, k.mk('b', u)) {
			t.Errorf("follower of a led key got %v", got)
		}
		if s := c.Stats(); s.Entries != 2 || s.Misses != 2 {
			t.Errorf("stats after landing two led keys = %+v", s)
		}
	})

	t.Run("error not cached", func(t *testing.T) {
		dir := t.TempDir()
		c := open(t, Options{Dir: dir})
		boom := errors.New("boom")
		if _, _, err := c.Do(ctx, "key", func() (V, error) { return k.mk('e', u), boom }); err != boom {
			t.Fatalf("err = %v, want boom", err)
		}
		if s := c.Stats(); s.Entries != 0 || len(diskFiles(t, dir)) != 0 {
			t.Fatalf("a failed compute was cached: %+v, disk %v", s, diskFiles(t, dir))
		}
		var computes atomic.Int64
		val, hit, err := c.Do(ctx, "key", func() (V, error) {
			computes.Add(1)
			return k.mk('k', u), nil
		})
		if err != nil || hit || !k.same(val, k.mk('k', u)) || computes.Load() != 1 {
			t.Fatalf("recompute after error: val=%v hit=%v err=%v computes=%d", val, hit, err, computes.Load())
		}
	})

	// A follower blocked on an in-flight compute must return promptly when
	// its own context is cancelled, not sit out the leader's compute.
	t.Run("follower honors own context", func(t *testing.T) {
		c := open(t, Options{})
		release := make(chan struct{})
		started := make(chan struct{})
		leaderDone := make(chan struct{})
		go func() {
			defer close(leaderDone)
			_, _, _ = c.Do(ctx, "key", func() (V, error) {
				close(started)
				<-release
				return k.mk('v', u), nil
			})
		}()
		<-started
		fctx, cancel := context.WithCancel(ctx)
		cancel()
		if _, _, err := c.Do(fctx, "key", func() (V, error) { return k.mk('v', u), nil }); err != context.Canceled {
			t.Fatalf("follower returned %v, want its own context.Canceled", err)
		}
		close(release) // leader completes normally afterwards
		<-leaderDone
	})

	// A leader's error — e.g. its own cancelled context aborting the
	// compute — must not poison followers; the follower re-enters and
	// computes under its own context.
	t.Run("follower survives leader failure", func(t *testing.T) {
		c := open(t, Options{})
		leaderStarted := make(chan struct{})
		leaderFail := make(chan struct{})
		leaderDone := make(chan error, 1)
		go func() {
			_, _, err := c.Do(ctx, "key", func() (V, error) {
				close(leaderStarted)
				<-leaderFail
				return k.mk('l', u), context.Canceled // the leader's request was cancelled
			})
			leaderDone <- err
		}()
		<-leaderStarted

		var followerComputes atomic.Int64
		followerDone := make(chan struct{})
		var val V
		var hit bool
		var err error
		go func() {
			defer close(followerDone)
			val, hit, err = c.Do(ctx, "key", func() (V, error) {
				followerComputes.Add(1)
				return k.mk('r', u), nil
			})
		}()
		close(leaderFail)
		if lerr := <-leaderDone; lerr != context.Canceled {
			t.Fatalf("leader error = %v", lerr)
		}
		<-followerDone
		if err != nil || hit || !k.same(val, k.mk('r', u)) || followerComputes.Load() != 1 {
			t.Fatalf("follower adopted the leader's failure: val=%v hit=%v err=%v computes=%d", val, hit, err, followerComputes.Load())
		}
	})

	// For a stored entry, every single-bit flip at every byte position and
	// every proper-prefix truncation must turn the lookup into a miss — and
	// the poisoned file must be gone afterwards, so the slot heals by
	// recompute. For the strict codec a flip in the payload is caught by the
	// checksum and a (re-checksummed) malformed payload by Decode.
	t.Run("every point corruption is a miss", func(t *testing.T) {
		dir := t.TempDir()
		const key = "corrupt-property"
		want := k.mk('c', 24*u)
		open(t, Options{Dir: dir}).Put(key, want)
		file := filepath.Join(dir, key)
		orig, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		check := func(mutated []byte, what string, pos int) {
			t.Helper()
			if err := os.WriteFile(file, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := open(t, Options{Dir: dir}).Get(key); ok {
				t.Fatalf("%s at %d served a hit (%v); corruption must be a miss", what, pos, got)
			}
			if _, err := os.Stat(file); !os.IsNotExist(err) {
				t.Fatalf("%s at %d: corrupt file survived the miss; it must self-delete", what, pos)
			}
		}
		for i := range orig {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), orig...)
				mut[i] ^= 1 << bit
				check(mut, "bit flip", i*8+bit)
			}
		}
		for cut := 0; cut < len(orig); cut++ {
			check(append([]byte(nil), orig[:cut]...), "truncation", cut)
		}
		// A payload that passes its checksum but that Encode could not have
		// written: only a strict Decode stands between it and a wrong value.
		// (The identity codec has no malformed payloads; every checksummed
		// byte string is a value.)
		if _, err := k.codec.Decode([]byte("not a payload")); err != nil {
			bad := []byte("not a payload")
			sum := sha256.Sum256(bad)
			check(append(sum[:], bad...), "checksum-valid undecodable payload", 0)
		}

		// The slot recovers: a Do over the poisoned (now deleted) entry
		// recomputes and the run succeeds.
		got, hit, err := open(t, Options{Dir: dir}).Do(ctx, key, func() (V, error) { return want, nil })
		if err != nil || hit || !k.same(got, want) {
			t.Fatalf("Do after corruption = (%v, hit=%v, err=%v), want recompute of the original", got, hit, err)
		}
	})

	// The resource bound: under concurrent Do over more keys than fit —
	// with evictions, replacements, disk promotions and removals all in
	// play — the memory tier never exceeds either bound at any observation.
	t.Run("bounds hold under concurrent load", func(t *testing.T) {
		const maxEntries = 8
		maxBytes := 40 * u
		c := open(t, Options{MaxEntries: maxEntries, MaxBytes: maxBytes, Dir: t.TempDir()})
		observe := func() {
			if s := c.Stats(); s.Entries > maxEntries || s.Bytes > maxBytes || s.Bytes < 0 {
				t.Errorf("bounds violated: %+v (max %d entries, %d bytes)", s, maxEntries, maxBytes)
			}
		}
		stop := make(chan struct{})
		var watcher sync.WaitGroup
		watcher.Add(1)
		go func() {
			defer watcher.Done()
			for {
				select {
				case <-stop:
					return
				default:
					observe()
				}
			}
		}()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					n := (g*31 + i*7) % 29 // 29 keys over an 8-entry tier
					key := fmt.Sprintf("key%d", n)
					want := k.mk(byte('a'+n%26), int64(1+n%9)*u) // 1..9 units: some evict by bytes first
					switch i % 5 {
					case 0:
						c.Put(key, want)
					case 1:
						c.Remove(key)
					case 2:
						if v, ok := c.Get(key); ok && !k.same(v, want) {
							t.Errorf("Get(%s) = %v", key, v)
						}
					default:
						v, _, err := c.Do(ctx, key, func() (V, error) { return want, nil })
						if err != nil || !k.same(v, want) {
							t.Errorf("Do(%s) = %v, %v", key, v, err)
						}
					}
					observe()
				}
			}(g)
		}
		wg.Wait()
		close(stop)
		watcher.Wait()
		if s := c.Stats(); s.Evictions == 0 {
			t.Errorf("the load never overflowed the tier (%+v); the bound was not exercised", s)
		}
	})
}

// FuzzDiskEntryCorruption lets the fuzzer replace an on-disk entry with
// arbitrary bytes, for both codecs at once. The invariant: a hit may only
// ever serve a payload that matches the entry's own checksum and that the
// codec's Decode accepts — and then exactly that payload's value — (which,
// for anything the fuzzer can realistically produce, means a miss); a miss
// deletes the poison; and the lookup never panics or errors the run.
func FuzzDiskEntryCorruption(f *testing.F) {
	const key = "corrupt-fuzz"
	bytesOpts := Options{MaxEntries: 4, MaxBytes: 1 << 20, Dir: f.TempDir()}
	strictOpts := Options{MaxEntries: 4, MaxBytes: 1 << 20, Dir: f.TempDir()}
	bc, err := New[[]byte](Bytes{}, bytesOpts)
	if err != nil {
		f.Fatal(err)
	}
	bc.Put(key, []byte(`{"workload":"w","seed":2,"observer":"bbl","insts":7,"result":{"n":67890}}`))
	sc, err := New[*rec](strictCodec{}, strictOpts)
	if err != nil {
		f.Fatal(err)
	}
	sc.Put(key, &rec{body: "a strict payload with a length byte"})
	stored := func(dir string) []byte {
		orig, err := os.ReadFile(filepath.Join(dir, key))
		if err != nil {
			f.Fatal(err)
		}
		return orig
	}
	bytesOrig, strictOrig := stored(bytesOpts.Dir), stored(strictOpts.Dir)

	for _, orig := range [][]byte{bytesOrig, strictOrig} {
		f.Add(orig)               // the untouched entry: a legitimate hit
		f.Add(orig[:len(orig)-1]) // torn write
		f.Add(orig[:16])          // shorter than the checksum
		flip := append([]byte(nil), orig...)
		flip[40] ^= 0x01
		f.Add(flip)
	}
	f.Add([]byte{})                       // empty file
	f.Add(bytes.Repeat([]byte{0xff}, 64)) // junk of plausible size
	// Checksum-valid but structurally hostile: the strict decode is the only
	// thing standing between it and a wrong value.
	hostile := []byte("rec1\x05")
	hostileSum := sha256.Sum256(hostile)
	f.Add(append(hostileSum[:], hostile...))

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzOne(t, Bytes{}, bytesOpts, key, data, bytesOrig, bytes.Equal)
		fuzzOne(t, strictCodec{}, strictOpts, key, data, strictOrig, strictKit.same)
	})
}

func fuzzOne[V any](t *testing.T, codec Codec[V], opts Options, key string, data, orig []byte, same func(a, b V) bool) {
	file := filepath.Join(opts.Dir, key)
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := New(codec, opts)
	if err != nil {
		t.Fatalf("New over a corrupt dir: %v", err)
	}
	got, ok := c.Get(key)
	if ok {
		// A hit is legal only when the bytes really are a valid entry.
		if len(data) < sha256.Size {
			t.Fatalf("hit from a %d-byte file, shorter than its checksum", len(data))
		}
		if sum := sha256.Sum256(data[sha256.Size:]); !bytes.Equal(sum[:], data[:sha256.Size]) {
			t.Fatalf("hit from an entry whose checksum does not match its payload")
		}
		dec, err := codec.Decode(data[sha256.Size:])
		if err != nil {
			t.Fatalf("hit from a payload the codec rejects: %v", err)
		}
		if !same(got, dec) {
			t.Fatalf("hit served %v, want the file's own payload %v", got, dec)
		}
	} else if _, err := os.Stat(file); err == nil {
		t.Fatalf("corrupt entry survived a miss; it must self-delete")
	}
	// Restore the entry for the next iteration either way.
	if err := os.WriteFile(file, orig, 0o644); err != nil {
		t.Fatal(err)
	}
}
