package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rebalance/internal/program"
	"rebalance/internal/sim/shardcache"
	"rebalance/internal/workload/synth"
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
// is driven through runJob directly — it must not enter observerKinds,
// whose property tests rightly require a working wire algebra from every
// kind.
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

// The oracle of the key appenders is the recipe they replaced: json.Marshal
// of the canonical struct — a ShardSpec, or the trace coordinate below —
// with each built-in configuration re-described through its options
// struct, then the hex SHA-256 behind the version.

type oracleTraceCoord struct {
	Workload string        `json:"workload"`
	Synth    *synth.Params `json:"synth,omitempty"`
	Seed     uint64        `json:"seed"`
	Insts    int64         `json:"insts"`
}

func oracleContentKey(t testing.TB, version string, canon any) string {
	t.Helper()
	data, err := json.Marshal(canon)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s-%x", version, sha256.Sum256(data))
}

// oracleObserverSpec is cfg.Spec() as json.Marshal of the configuration's
// options struct wrote it; a configuration of no built-in kind is taken at
// its word.
func oracleObserverSpec(t testing.TB, cfg ObserverConfig) ObserverSpec {
	t.Helper()
	spec := cfg.Spec()
	var opts any
	switch c := cfg.(type) {
	case bpredCfg:
		opts = bpredOptions{Configs: []string{c.name}}
	case bpredGroupCfg:
		opts = bpredOptions{Configs: c.names, Grouped: true}
	case btbCfg:
		opts = btbOptions{Geometries: []btbGeometry{c.g}}
	case icacheCfg:
		opts = icacheOptions{Geometries: []icacheGeometry{c.g}}
	default:
		return spec
	}
	var err error
	if spec.Options, err = json.Marshal(opts); err != nil {
		t.Fatal(err)
	}
	return spec
}

func oracleCanonSynth(t testing.TB, p *synth.Params) *synth.Params {
	if p == nil {
		return nil
	}
	c, err := p.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return &c
}

func oracleShardKey(t testing.TB, sp ShardSpec, cfg ObserverConfig) string {
	canon := ShardSpec{Workload: sp.Workload, Synth: oracleCanonSynth(t, sp.Synth), Seed: sp.Seed, Insts: sp.Insts,
		Engine: sp.Engine, Observer: oracleObserverSpec(t, cfg)}
	if canon.Engine == "" {
		canon.Engine = EngineCompiled
	}
	return oracleContentKey(t, cacheKeyVersion, canon)
}

func oracleTraceKey(t testing.TB, sp ShardSpec) string {
	return oracleContentKey(t, traceKeyVersion, oracleTraceCoord{Workload: sp.Workload, Synth: oracleCanonSynth(t, sp.Synth), Seed: sp.Seed, Insts: sp.Insts})
}

// keyCfg is a configuration that re-describes itself as any ObserverSpec,
// so the key's observer half meets kinds and options no built-in
// configuration writes. It is never run.
type keyCfg struct{ spec ObserverSpec }

func (c keyCfg) Key() string                                 { return "key-test/" + c.spec.Kind }
func (c keyCfg) NewObserver(*program.Program) ShardObserver  { panic("keyCfg is never run") }
func (c keyCfg) NewResult() Result                           { panic("keyCfg is never run") }
func (c keyCfg) Spec() ObserverSpec                          { return c.spec }
func (c keyCfg) DecodeTarget() (any, func() (Result, error)) { panic("keyCfg is never run") }

// keySynths are scenarios that exercise the synth knobs: defaults made
// explicit, every knob set, and a zero fraction omitted.
func keySynths(t testing.TB) []*synth.Params {
	out := []*synth.Params{{Name: "defaults"}, {Name: "full.knobs_1", Seed: 42, BiasedFrac: 0.6, CorrelatedFrac: 0.25,
		NoisyFrac: 0.15, Bias: 0.93, BlockLen: 5, LoopDepth: 3, TripCounts: []int{12, 30, 1024}, Funcs: 10,
		CallFanout: 3, IndirectFanout: 8, Dispatch: synth.DispatchWeighted, HotFrac: 0.5},
		{Name: "uncorrelated", BiasedFrac: 0.9, NoisyFrac: 0.1}}
	for _, p := range out {
		if _, err := p.Canonical(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	return out
}

// TestShardCacheKeyMatchesMarshal holds the one-pass sc2- and tr1- keys to
// the json.Marshal recipe they replaced, byte for byte: every kind's
// default configurations plus grouped and parallel bpred, built-in and
// synth workloads under names encoding/json must escape, the engine
// empty and explicit, and observer specs of no built-in kind whose kind and
// options need escaping or compacting. Parallel is a synonym for grouped:
// both expand to one configuration with one Key, Spec and cache key.
func TestShardCacheKeyMatchesMarshal(t *testing.T) {
	specs := []ObserverSpec{
		{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small","tage-small"],"grouped":true}`)},
		{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-big","tournament-big","tage-big"],"parallel":true}`)},
	}
	for _, kind := range ObserverKinds() {
		specs = append(specs, ObserverSpec{Kind: kind})
	}
	cfgs, err := expandObservers(specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range []string{"{ \"a\" : [1, 2] ,\n\t\"b\": \"x y\" }", `{"html":"<a>&amp;</a>"}`, `{ "spaced" : 1 }`, `{"amp":"&"}`, `{"gt":">"}`, "[\"sep\u2028para\u2029\"]", `"ünï"`, `{}`, ``} {
		cfgs = append(cfgs, keyCfg{ObserverSpec{Kind: "opts", Options: json.RawMessage(raw)}})
	}
	for _, kind := range awkwardNames {
		cfgs = append(cfgs, keyCfg{ObserverSpec{Kind: kind}})
	}

	var cells []ShardSpec
	for _, engine := range []string{"", EngineCompiled} {
		for _, sp := range append([]*synth.Params{nil}, keySynths(t)...) {
			for _, name := range append([]string{"comd-lite"}, awkwardNames...) {
				cells = append(cells, ShardSpec{Workload: name, Synth: sp, Seed: 7, Insts: 1000, Engine: engine})
			}
		}
	}
	cells = append(cells, ShardSpec{Workload: "xalan-lite", Seed: math.MaxUint64, Insts: math.MaxInt64})

	var synonyms []ObserverConfig
	for _, opts := range []string{`{"configs":["gshare-small","tage-small"],"parallel":true}`, `{"configs":["gshare-small","tage-small"],"grouped":true}`} {
		cfg, err := expandObservers([]ObserverSpec{{Kind: "bpred", Options: json.RawMessage(opts)}})
		if err != nil {
			t.Fatal(err)
		}
		synonyms = append(synonyms, cfg...)
	}
	par, grp := synonyms[0], synonyms[1]
	ps, gs := par.Spec(), grp.Spec()
	if par.Key() != grp.Key() || ps.Kind != gs.Kind || !bytes.Equal(ps.Options, gs.Options) || ShardCacheKey(cells[0], par) != ShardCacheKey(cells[0], grp) {
		t.Errorf("parallel is not grouped: Key %s vs %s, Spec %s vs %s", par.Key(), grp.Key(), ps.Options, gs.Options)
	}

	for _, sp := range cells {
		if got, want := traceKey(sp.Workload, sp.Synth, sp.Seed, sp.Insts), oracleTraceKey(t, sp); got != want {
			t.Errorf("traceKey(%q, synth %v) = %s, want %s", sp.Workload, sp.Synth != nil, got, want)
		}
		for _, cfg := range cfgs {
			if got, want := ShardCacheKey(sp, cfg), oracleShardKey(t, sp, cfg); got != want {
				t.Errorf("ShardCacheKey(%q, synth %v, engine %q, %s %q) = %s, want %s",
					sp.Workload, sp.Synth != nil, sp.Engine, cfg.Key(), cfg.Spec().Options, got, want)
			}
		}
	}
}

// countingCfg is a configuration whose DecodeTarget counts its calls: one
// call is one decode of a stored record.
type countingCfg struct {
	ObserverConfig
	decodes *atomic.Int64
}

func (c countingCfg) DecodeTarget() (any, func() (Result, error)) {
	c.decodes.Add(1)
	return c.ObserverConfig.DecodeTarget()
}

// TestCachedRecordDecodesOnce: concurrent and repeated hits on one stored
// record decode it once; a Put, an eviction (served again by disk
// promotion) and a fresh cache's disk promotion each start a record that
// decodes again; and a decoded record still refuses a cell it does not name.
func TestCachedRecordDecodesOnce(t *testing.T) {
	ctx := context.Background()
	inner, err := expandObservers([]ObserverSpec{{Kind: "bbl"}})
	if err != nil {
		t.Fatal(err)
	}
	var decodes atomic.Int64
	cfg := countingCfg{inner[0], &decodes}
	spec := ShardSpec{Workload: "comd-lite", Seed: 3, Insts: 5_000, Observer: cfg.Spec()}
	sh, err := NewSession(1).RunShard(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := EncodeShard(sh)
	if err != nil {
		t.Fatal(err)
	}
	key, dir := ShardCacheKey(spec, cfg), t.TempDir()
	cache, err := shardcache.New(shardcache.Options{MaxEntries: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hits := func(what string, want int64) {
		t.Helper()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, hit, _, err := resolveShard(ctx, cache, key, spec, cfg)
				if err != nil || !hit || !got.Cached || got.Result == nil {
					t.Errorf("%s: hit=%v cached=%v err=%v", what, hit, got.Cached, err)
				}
			}()
		}
		wg.Wait()
		if n := decodes.Load(); n != want {
			t.Fatalf("%s: %d decodes in all, want %d", what, n, want)
		}
	}
	cache.Put(key, rec)
	hits("eight hits on one record", 1)
	cache.Put(key, rec)
	hits("a Put", 2)
	cache.Put("other-1", rec)
	cache.Put("other-2", rec)
	if st := cache.Stats(); st.Evictions == 0 {
		t.Fatalf("no eviction: %+v", st)
	}
	hits("an eviction and its disk promotion", 3)
	if cache, err = shardcache.New(shardcache.Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	hits("a fresh cache's disk promotion", 4)

	other := spec
	other.Seed++
	_, hit, land, err := resolveShard(ctx, cache, key, other, cfg)
	if err != nil || hit {
		t.Fatalf("a decoded record served a cell it does not name (hit=%v err=%v)", hit, err)
	}
	land(Shard{}, errors.New("not computed"))
}

// decodedPerStoredByte is k in shardcache.Options' doc: the most bytes a
// record's first warm hit allocates decoding it, per stored byte. The worst
// kind measures ≈ 18.5 (footprint, whose chunk maps decode to several
// times their JSON); the rest headroom is for another Go release's maps.
const decodedPerStoredByte = 20

// TestDecodedRecordWithinBound measures, for every observer kind's default
// configurations on both built-in workloads, the bytes a record's first
// warm hit allocates: the decoded shard and its result's artifact, which
// the record holds beside its bytes. A cache at MaxBytes then holds at most
// (1 + decodedPerStoredByte)·MaxBytes. The minimum of a few fresh records
// is taken, so a stray allocation elsewhere in the process cannot fail it.
func TestDecodedRecordWithinBound(t *testing.T) {
	ctx := context.Background()
	sess := NewSession(1)
	kinds := ObserverKinds()
	if len(kinds) != 7 {
		t.Errorf("%d observer kinds %v, want the seven the bound was measured on", len(kinds), kinds)
	}
	for _, kind := range kinds {
		cfgs, err := expandObservers([]ObserverSpec{{Kind: kind}})
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for _, w := range []string{"comd-lite", "xalan-lite"} {
			for _, cfg := range cfgs {
				spec := ShardSpec{Workload: w, Seed: 1, Insts: 50_000, Observer: cfg.Spec()}
				sh, err := sess.RunShard(ctx, spec)
				if err != nil {
					t.Fatal(err)
				}
				rec, err := EncodeShard(sh)
				if err != nil {
					t.Fatal(err)
				}
				key := ShardCacheKey(spec, cfg)
				alloc := uint64(math.MaxUint64)
				for range 3 {
					cache, err := shardcache.New(shardcache.Options{})
					if err != nil {
						t.Fatal(err)
					}
					cache.Put(key, rec)
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					_, hit, _, err := resolveShard(ctx, cache, key, spec, cfg)
					runtime.ReadMemStats(&after)
					if err != nil || !hit {
						t.Fatalf("%s/%s: hit=%v err=%v", w, cfg.Key(), hit, err)
					}
					alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
				}
				ratio := float64(alloc) / float64(len(rec))
				t.Logf("%s %s: %d B record, %d B decoded, %.2f", w, cfg.Key(), len(rec), alloc, ratio)
				worst = max(worst, ratio)
			}
		}
		if worst > decodedPerStoredByte {
			t.Errorf("%s: a record's first hit allocates %.2f bytes per stored byte, over the documented %d", kind, worst, decodedPerStoredByte)
		}
	}
}

// TestConcurrentWarmRunsShareReadOnlyResults: two Runs over one warm cache,
// each marshalling its report, produce the cold run's report; their cached
// shards share the results the records decoded, and those results encode
// exactly as before the runs merged them.
func TestConcurrentWarmRunsShareReadOnlyResults(t *testing.T) {
	ctx := context.Background()
	sess := newCachedSession(t, 2, "")
	cold, err := sess.Run(ctx, goldenRunSpec())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sess.Run(ctx, goldenRunSpec())
	if err != nil {
		t.Fatal(err)
	}
	before := make([][]byte, len(warm.Shards))
	for i, sh := range warm.Shards {
		if before[i], err = sh.Result.EncodeJSON(); err != nil {
			t.Fatal(err)
		}
	}
	reps := make([]*Report, 2)
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := sess.Run(ctx, goldenRunSpec())
			if err == nil {
				_, err = json.Marshal(rep)
			}
			if err != nil {
				t.Error(err)
				return
			}
			reps[i] = rep
		}()
	}
	wg.Wait()
	want := renderGolden(t, cold)
	for _, rep := range reps {
		if rep == nil {
			t.FailNow()
		}
		if got := renderGolden(t, rep); !bytes.Equal(got, want) {
			t.Errorf("concurrent warm report differs from the cold one:\n%s", got)
		}
		for i, sh := range rep.Shards {
			if !sh.Cached || sh.Result != warm.Shards[i].Result {
				t.Errorf("shard %d: cached=%v, result shared with the earlier warm run: %v", i, sh.Cached, sh.Result == warm.Shards[i].Result)
			}
		}
	}
	for i, sh := range warm.Shards {
		if after, _ := sh.Result.EncodeJSON(); !bytes.Equal(after, before[i]) {
			t.Errorf("shard %d's cached result changed under the merges:\nbefore: %s\nafter:  %s", i, before[i], after)
		}
	}
}

// TestReplacedResultIsEncodedAfresh: a cached shard copies its record's
// artifact only while its Result is the result that artifact encodes.
func TestReplacedResultIsEncodedAfresh(t *testing.T) {
	sess := newCachedSession(t, 1, "")
	var warm *Report
	for range 2 {
		var err error
		if warm, err = sess.Run(context.Background(), goldenRunSpec()); err != nil {
			t.Fatal(err)
		}
	}
	sh := warm.Shards[0]
	if sh.enc == nil {
		t.Fatal("a cached shard carries no artifact")
	}
	check := func(what string, sh Shard) {
		t.Helper()
		want, _ := json.Marshal(oracleShard(t, sh))
		if got, err := EncodeShard(sh); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: EncodeShard = %s (err %v), want %s", what, got, err, want)
		}
	}
	check("as served", sh)
	sh.Result = warm.Shards[len(warm.Shards)-1].Result
	check("result replaced", sh)
	sh.Result = nil
	check("result dropped", sh)
}
