package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"rebalance/internal/program"
	"rebalance/internal/sim/shardcache"
)

func newCachedSession(t *testing.T, workers int, dir string) *Session {
	t.Helper()
	cache, err := shardcache.New(shardcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(workers)
	sess.SetCache(cache)
	return sess
}

// goldenRunSpec is the exact Spec TestReportGolden pins, so the warm-cache
// assertions below are made against the repository's golden grid.
func goldenRunSpec() *Spec {
	return &Spec{
		Workloads: []string{"comd-lite", "xalan-lite"},
		Seeds:     []uint64{1, 2},
		Insts:     40_000,
		Observers: fullObserverSpecs(),
	}
}

// renderGolden marshals a report the way the golden file does: stripped
// of its run-dependent fields, everything else untouched.
func renderGolden(t *testing.T, rep *Report) []byte {
	t.Helper()
	got, err := json.MarshalIndent(rep.Stripped(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(got, '\n')
}

// TestWarmCacheRunBitIdentical is the tentpole acceptance check: a second
// pass over the golden grid is served entirely from the cache and its
// report is bit-identical (up to timing fields and the Cached marks) to
// the cold pass — which itself matches the repository golden file, cold
// or warm.
func TestWarmCacheRunBitIdentical(t *testing.T) {
	sess := newCachedSession(t, 2, t.TempDir())

	cold, err := sess.Run(context.Background(), goldenRunSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold.Shards {
		if cold.Shards[i].Cached {
			t.Errorf("cold shard %d marked cached", i)
		}
	}
	warm, err := sess.Run(context.Background(), goldenRunSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := range warm.Shards {
		if !warm.Shards[i].Cached {
			t.Errorf("warm shard %d (%s/%s seed %d) not served from cache", i,
				warm.Shards[i].Workload, warm.Shards[i].Observer, warm.Shards[i].Seed)
		}
	}

	nShards := len(cold.Shards)
	s := sess.Cache().Stats()
	if int(s.Misses) != nShards {
		t.Errorf("cache misses = %d, want one per cold shard (%d)", s.Misses, nShards)
	}
	if int(s.Hits) < nShards {
		t.Errorf("cache hits = %d after the warm pass, want >= %d", s.Hits, nShards)
	}

	coldJSON, warmJSON := renderGolden(t, cold), renderGolden(t, warm)
	if string(coldJSON) != string(warmJSON) {
		t.Errorf("warm-cache report differs from cold report:\ncold:\n%s\nwarm:\n%s", coldJSON, warmJSON)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "report_v1.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(warmJSON) != string(want) {
		t.Errorf("warm-cache report drifted from the golden file;\ngot:\n%s", warmJSON)
	}
}

// TestWarmCacheAcrossSessions checks the disk tier: a fresh session (cold
// compile cache, cold memory tier) over the same cache directory serves
// the whole grid from disk.
func TestWarmCacheAcrossSessions(t *testing.T) {
	dir := t.TempDir()
	cold, err := newCachedSession(t, 2, dir).Run(context.Background(), goldenRunSpec())
	if err != nil {
		t.Fatal(err)
	}
	fresh := newCachedSession(t, 2, dir)
	warm, err := fresh.Run(context.Background(), goldenRunSpec())
	if err != nil {
		t.Fatal(err)
	}
	if s := fresh.Cache().Stats(); s.Misses != 0 || s.DiskHits == 0 {
		t.Errorf("fresh session stats = %+v, want pure disk hits", s)
	}
	coldJSON, warmJSON := renderGolden(t, cold), renderGolden(t, warm)
	if string(coldJSON) != string(warmJSON) {
		t.Errorf("disk-served report differs from cold report")
	}
}

// TestConcurrentDuplicateShardsComputeOnce is the singleflight acceptance
// check: N concurrent identical RunShard calls perform exactly one
// underlying compute (one cache miss), and every caller gets the same
// result bytes.
func TestConcurrentDuplicateShardsComputeOnce(t *testing.T) {
	sess := newCachedSession(t, 4, "")
	spec := ShardSpec{
		Workload: "comd-lite",
		Seed:     11,
		Insts:    150_000,
		Observer: ObserverSpec{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small"]}`)},
	}
	// Warm the compile cache so the concurrent calls race on the result
	// cache, not on one-time compilation.
	if _, err := sess.Compiled(spec.Workload); err != nil {
		t.Fatal(err)
	}

	const n = 8
	shards := make([]Shard, n)
	errs := make([]error, n)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			shards[i], errs[i] = sess.RunShard(context.Background(), spec)
		}(i)
	}
	start.Done()
	wg.Wait()

	var first []byte
	cached := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		enc, err := shards[i].Result.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = enc
		} else if string(enc) != string(first) {
			t.Errorf("caller %d got a different result", i)
		}
		if shards[i].Cached {
			cached++
		}
	}
	s := sess.Cache().Stats()
	if s.Misses != 1 {
		t.Errorf("%d cache misses for %d concurrent identical shards, want exactly 1 compute", s.Misses, n)
	}
	if int(s.Hits) != n-1 || cached != n-1 {
		t.Errorf("hits = %d, cached marks = %d, want %d (everyone but the compute leader)", s.Hits, cached, n-1)
	}
}

// TestPoisonedCacheEntryRecovers: an entry whose payload passes the
// cache's checksum but fails DecodeShard (e.g. written by an
// incompatible build into a shared directory) must be dropped and
// recomputed — through the singleflight, with the fresh result cached —
// never fail the run.
func TestPoisonedCacheEntryRecovers(t *testing.T) {
	sess := newCachedSession(t, 1, "")
	spec := ShardSpec{
		Workload: "comd-lite",
		Seed:     5,
		Insts:    10_000,
		Observer: ObserverSpec{Kind: "bbl"},
	}
	key, err := spec.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	sess.Cache().Put(key, []byte(`{"not":"a shard record"}`))

	sh, err := sess.RunShard(context.Background(), spec)
	if err != nil {
		t.Fatalf("poisoned entry failed the run: %v", err)
	}
	if sh.Cached {
		t.Error("recomputed shard marked cached")
	}
	if sh.Insts < spec.Insts || sh.Result == nil {
		t.Errorf("recomputed shard incomplete: %+v", sh)
	}
	// The recompute repopulated the cache: the next call is a clean hit.
	again, err := sess.RunShard(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("cache not repopulated after poisoned-entry recovery")
	}
	a, _ := sh.Result.EncodeJSON()
	b, _ := again.Result.EncodeJSON()
	if string(a) != string(b) {
		t.Error("repopulated result differs from recomputed one")
	}
}

// badEncCfg wraps the bbl analysis config with a Result whose encoder
// fails, to exercise the compute-succeeded-but-encode-failed path.
type badEncCfg struct{ inner ObserverConfig }

func (c badEncCfg) Key() string { return "cache-test-badenc" }
func (c badEncCfg) NewObserver(p *program.Program) ShardObserver {
	return badEncObs{c.inner.NewObserver(p)}
}
func (c badEncCfg) NewResult() Result  { return badEncResult{c.inner.NewResult()} }
func (c badEncCfg) Spec() ObserverSpec { return ObserverSpec{Kind: "cache-test-badenc"} }
func (c badEncCfg) DecodeTarget() (any, func() (Result, error)) {
	return new(any), func() (Result, error) { return nil, errBadEnc }
}

type badEncObs struct{ ShardObserver }

func (o badEncObs) Finish() (Result, error) {
	r, err := o.ShardObserver.Finish()
	return badEncResult{r}, err
}

type badEncResult struct{ Result }

var errBadEnc = fmt.Errorf("cache-test: encoder always fails")

func (badEncResult) EncodeJSON() ([]byte, error) { return nil, errBadEnc }

// TestEncodeFailureServesComputedShard: when the simulation succeeds but
// the result cannot be encoded for the cache, the shard is still served
// (uncached) instead of failing the run. The contract-violating config
// is driven through runJob directly — it must not enter the global
// observer registry, whose property tests rightly require a working
// wire algebra from every registered kind.
func TestEncodeFailureServesComputedShard(t *testing.T) {
	inner, err := expandObservers([]ObserverSpec{{Kind: "bbl"}})
	if err != nil {
		t.Fatal(err)
	}
	sess := newCachedSession(t, 1, "")
	compiled, err := sess.Compiled("comd-lite")
	if err != nil {
		t.Fatal(err)
	}
	const insts = 10_000
	sh, err := sess.runJob(context.Background(), compiled, cellOf("comd-lite", badEncCfg{inner: inner[0]}, 9, insts))
	if err != nil {
		t.Fatalf("encode failure killed the run: %v", err)
	}
	if sh.Cached || sh.Result == nil || sh.Insts < insts {
		t.Errorf("served shard incomplete: %+v", sh)
	}
	if s := sess.Cache().Stats(); s.Entries != 0 {
		t.Errorf("unencodable result was cached: %+v", s)
	}
}

// TestCacheKeyCanonicalization pins the content-address semantics: keys
// are invariant to request spelling (engine defaulted vs explicit, option
// encodings that expand to the same configuration) and sensitive to every
// axis that changes the computation.
func TestCacheKeyCanonicalization(t *testing.T) {
	base := func() ShardSpec {
		return ShardSpec{
			Workload: "comd-lite",
			Seed:     1,
			Insts:    10_000,
			Observer: ObserverSpec{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small"]}`)},
		}
	}
	key := func(sp ShardSpec) string {
		t.Helper()
		k, err := sp.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	ref := key(base())

	// Equivalent spellings collapse to one key.
	explicit := base()
	explicit.Engine = EngineCompiled
	if key(explicit) != ref {
		t.Error("explicit default engine changed the key")
	}
	respaced := base()
	respaced.Observer.Options = json.RawMessage(`{ "configs" : ["gshare-small"] , "grouped": false }`)
	if key(respaced) != ref {
		t.Error("equivalent option encoding changed the key")
	}

	// Every computation-changing axis changes the key.
	for name, mut := range map[string]func(*ShardSpec){
		"workload": func(sp *ShardSpec) { sp.Workload = "xalan-lite" },
		"seed":     func(sp *ShardSpec) { sp.Seed = 2 },
		"insts":    func(sp *ShardSpec) { sp.Insts = 20_000 },
		"observer": func(sp *ShardSpec) {
			sp.Observer.Options = json.RawMessage(`{"configs":["tage-small"]}`)
		},
	} {
		sp := base()
		mut(&sp)
		if key(sp) == ref {
			t.Errorf("changing %s did not change the key", name)
		}
	}

	// Invalid specs report ErrInvalidSpec rather than a bogus key — the
	// tests' reference oracle included: it is no engine a shard can name.
	for name, mut := range map[string]func(*ShardSpec){
		"workload": func(sp *ShardSpec) { sp.Workload = "no-such" },
		"engine":   func(sp *ShardSpec) { sp.Engine = "reference" },
	} {
		bad := base()
		mut(&bad)
		if _, err := bad.Config(); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("invalid %s: Config err = %v, want ErrInvalidSpec", name, err)
		}
		if _, err := bad.CacheKey(); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("invalid %s produced a key (err = %v)", name, err)
		}
	}
}
