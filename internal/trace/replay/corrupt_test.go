package replay

// Corruption tests for the trace disk tier's safety property, the same
// wall shardcache holds: whatever happens to the bytes on disk — bit rot,
// torn writes, truncation, outright replacement — a lookup must degrade
// to a miss-and-regenerate. It must never replay a stream the writer
// didn't store, and never fail the run. The trace tier has a second line
// the result cache lacks: even a payload passing its checksum must
// survive the strict trr1 decode before it can hit.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"
)

// goldenCorruptTrace is the seed entry for the corruption wall: a real
// generated stream, so the bytes under mutation have the exact shape
// production entries have.
func goldenCorruptTrace(t testing.TB) *Trace {
	return recordWorkload(t, "comd-lite", 1, 2_000)
}

// diskEntryFile returns the single file backing the store's disk tier.
func diskEntryFile(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) != 1 {
		t.Fatalf("disk tier holds %d files, want exactly 1", len(files))
	}
	return files[0]
}

// freshStoreGet opens a new store over dir (cold memory tier, so the disk
// bytes are what answer) and looks key up.
func freshStoreGet(t *testing.T, dir, key string) (*Trace, bool) {
	t.Helper()
	return mustStore(t, Options{Dir: dir}).Get(key)
}

// TestEveryPointCorruptionIsAMiss is the exhaustive property check: for a
// stored trace, every single-bit flip at every byte position, and every
// proper-prefix truncation, must turn the lookup into a miss — and the
// poisoned file must be gone afterwards, so the slot heals by
// regeneration.
func TestEveryPointCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	const key = "tr1-corrupt-property"
	want := goldenCorruptTrace(t)
	mustStore(t, Options{Dir: dir}).Put(key, want)
	file := diskEntryFile(t, dir)
	orig, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}

	check := func(mutated []byte, what string, pos int) {
		t.Helper()
		if err := os.WriteFile(file, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := freshStoreGet(t, dir, key); ok {
			t.Fatalf("%s at %d served a hit; corruption must be a miss", what, pos)
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

	// The slot recovers: a Do over the poisoned (now deleted) entry
	// regenerates and the run succeeds.
	s := mustStore(t, Options{Dir: dir})
	got, hit, err := s.Do(context.Background(), key, func() (*Trace, error) { return want, nil })
	if err != nil || hit || !sameTrace(got, want) {
		t.Fatalf("Do after corruption = (hit=%v, err=%v), want regeneration of the original", hit, err)
	}
}

// FuzzTraceDiskCorruption lets the fuzzer replace the on-disk entry with
// arbitrary bytes. The invariant: a hit may only ever serve a trace whose
// bytes pass both the entry checksum and the strict trr1 decode (which,
// for anything the fuzzer can realistically produce, means a miss), and
// the lookup must never panic or error the run.
func FuzzTraceDiskCorruption(f *testing.F) {
	dir := f.TempDir()
	const key = "tr1-corrupt-fuzz"
	seedTrace := goldenCorruptTrace(f)
	s, err := New(Options{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	s.Put(key, seedTrace)
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		f.Fatalf("disk tier setup: %v (%d files)", err, len(ents))
	}
	file := filepath.Join(dir, ents[0].Name())
	orig, err := os.ReadFile(file)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(orig)                           // the untouched entry: a legitimate hit
	f.Add(orig[:len(orig)-1])             // torn write
	f.Add(orig[:16])                      // shorter than the checksum
	f.Add([]byte{})                       // empty file
	f.Add(bytes.Repeat([]byte{0xff}, 64)) // junk of plausible size
	flip := append([]byte(nil), orig...)
	flip[40] ^= 0x01
	f.Add(flip)
	// A checksum-valid but structurally hostile payload: the strict decode
	// is the only thing standing between it and a wrong replay.
	hostile := []byte("trr1\x05")
	hostileSum := sha256.Sum256(hostile)
	f.Add(append(hostileSum[:], hostile...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ss, err := New(Options{Dir: dir})
		if err != nil {
			t.Fatalf("New over a corrupt dir: %v", err)
		}
		got, ok := ss.Get(key)
		if ok {
			// A hit is legal only when the bytes really are a valid entry:
			// checksum matches, and the trace is the payload's own decode.
			if len(data) < sha256.Size {
				t.Fatalf("hit from a %d-byte file, shorter than its checksum", len(data))
			}
			sum := sha256.Sum256(data[sha256.Size:])
			if !bytes.Equal(sum[:], data[:sha256.Size]) {
				t.Fatalf("hit from an entry whose checksum does not match its payload")
			}
			dec, err := Decode(data[sha256.Size:])
			if err != nil {
				t.Fatalf("hit from a payload the strict decoder rejects: %v", err)
			}
			if !sameTrace(got, dec) {
				t.Fatalf("hit served a trace that is not the payload's own decode")
			}
		} else {
			// A miss must delete the poison so the slot heals; restore the
			// entry for the next iteration either way.
			if _, err := os.Stat(file); err == nil && len(data) > 0 {
				t.Fatalf("corrupt entry survived a miss; it must self-delete")
			}
		}
		if err := os.WriteFile(file, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}
