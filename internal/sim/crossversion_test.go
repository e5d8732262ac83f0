package sim

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"rebalance/internal/sim/shardcache"
	"rebalance/internal/trace/replay"
)

// parentDiskSpec is the shard the fixture under testdata/parent_disk was
// computed for, by the commit before the tiered-cache unification: one
// entry written by that commit's shardcache (shards/) and one by its
// replay.Store (traces/).
var parentDiskSpec = ShardSpec{
	Workload: "comd-lite",
	Seed:     7,
	Insts:    1000,
	Observer: ObserverSpec{Kind: "branch-mix"},
}

// copyFixtureDir copies one fixture directory somewhere writable: a disk
// tier deletes entries it rejects, and a failing test must not eat the
// committed fixture.
func copyFixtureDir(t *testing.T, name string) string {
	t.Helper()
	src := filepath.Join("testdata", "parent_disk", name)
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("fixture %s holds %d files, want 1", src, len(ents))
	}
	data, err := os.ReadFile(filepath.Join(src, ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, ents[0].Name()), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestParentWrittenDiskTiersStillServe is the cross-version check on both
// disk formats and both key schemes: directories written by the parent
// commit's two separate stores are served as disk hits — no recompute, no
// regeneration — by the one tiered cache that replaced them. It fails if
// the sha256 framing, the trr1 payload, the shard wire record, or the
// sc2-/tr1- key derivation drifts.
func TestParentWrittenDiskTiersStillServe(t *testing.T) {
	want, err := NewSession(1).RunShard(context.Background(), parentDiskSpec)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := want.Result.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResult := func(t *testing.T, sh Shard) {
		t.Helper()
		got, err := sh.Result.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(wantJSON) || sh.Insts != want.Insts {
			t.Errorf("served shard differs from a fresh compute:\ngot:  %d insts %s\nwant: %d insts %s", sh.Insts, got, want.Insts, wantJSON)
		}
	}

	t.Run("shardcache", func(t *testing.T) {
		cache, err := shardcache.New(shardcache.Options{Dir: copyFixtureDir(t, "shards")})
		if err != nil {
			t.Fatal(err)
		}
		sess := NewSession(1)
		sess.SetCache(cache)
		sh, err := sess.RunShard(context.Background(), parentDiskSpec)
		if err != nil {
			t.Fatal(err)
		}
		if st := cache.Stats(); !sh.Cached || st.DiskHits != 1 || st.Misses != 0 {
			t.Errorf("parent-written shard record not served from disk: cached=%v stats=%+v", sh.Cached, st)
		}
		sameResult(t, sh)
	})
	t.Run("replay", func(t *testing.T) {
		store, err := replay.New(replay.Options{Dir: copyFixtureDir(t, "traces")})
		if err != nil {
			t.Fatal(err)
		}
		sess := NewSession(1)
		sess.SetTraceStore(store)
		sh, err := sess.RunShard(context.Background(), parentDiskSpec)
		if err != nil {
			t.Fatal(err)
		}
		if st := store.Stats(); st.DiskHits != 1 || st.Misses != 0 {
			t.Errorf("parent-written trace not served from disk: stats=%+v", st)
		}
		sameResult(t, sh)
	})
}
