package sim

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rebalance/internal/workload/synth"
)

// synthGridSpec is the spec the synth golden and cache tests share: two
// inline scenarios differing in one knob, two seeds, the full observer
// set.
func synthGridSpec() *Spec {
	return &Spec{
		Workloads: []string{"synth-a", "synth-b"},
		Synth: []synth.Params{
			{Name: "synth-a"},
			{Name: "synth-b", BiasedFrac: 0.9, CorrelatedFrac: 0.07, NoisyFrac: 0.03},
		},
		Seeds:     []uint64{1, 2},
		Insts:     20_000,
		Observers: fullObserverSpecs(),
	}
}

func TestSynthSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"bad knob", func(s *Spec) { s.Synth[0].Bias = 0.2 }, "bias"},
		{"bad mixture", func(s *Spec) { s.Synth[1].NoisyFrac = 0.5 }, "sum"},
		{"collides with registered", func(s *Spec) {
			s.Workloads = []string{"comd-lite"}
			s.Synth = []synth.Params{{Name: "comd-lite"}}
		}, "ambiguous addressing"},
		{"duplicate synth", func(s *Spec) { s.Synth[1] = s.Synth[0] }, "duplicate synth"},
		{"unreferenced synth", func(s *Spec) { s.Workloads = s.Workloads[:1] }, "not listed in workloads"},
		{"unknown stays unknown", func(s *Spec) { s.Workloads[1] = "synth-zz" }, "unknown workload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := synthGridSpec()
			tc.mut(spec)
			err := spec.Validate()
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !errors.Is(err, ErrInvalidSpec) {
				t.Errorf("error %v does not wrap ErrInvalidSpec", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("want error containing %q, got %v", tc.want, err)
			}
		})
	}

	// The wire path rejects the same failures through DecodeSpec, and
	// strict decoding refuses unknown knob fields outright.
	bad, err := json.Marshal(synthGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSpec(bad); err != nil {
		t.Fatalf("valid synth spec failed the wire path: %v", err)
	}
	mangled := strings.Replace(string(bad), `"biased_frac"`, `"biased_fraction"`, 1)
	if _, err := DecodeSpec([]byte(mangled)); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("unknown synth knob field: err = %v, want ErrInvalidSpec", err)
	}
}

func TestSynthShardSpecValidation(t *testing.T) {
	base := func() ShardSpec {
		p := synth.Params{Name: "synth-a"}
		return ShardSpec{
			Workload: "synth-a",
			Synth:    &p,
			Seed:     1,
			Insts:    5_000,
			Observer: ObserverSpec{Kind: "bbl"},
		}
	}
	if sp := base(); func() error { _, err := sp.Config(); return err }() != nil {
		t.Fatal("valid synth shard rejected")
	}
	cases := []struct {
		name string
		mut  func(*ShardSpec)
		want string
	}{
		{"name mismatch", func(sp *ShardSpec) { sp.Workload = "synth-b" }, "does not match"},
		{"bad knob", func(sp *ShardSpec) { sp.Synth.LoopDepth = 12 }, "loop_depth"},
		{"registered collision", func(sp *ShardSpec) {
			sp.Workload = "comd-lite"
			sp.Synth.Name = "comd-lite"
		}, "ambiguous addressing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := base()
			tc.mut(&sp)
			_, err := sp.Config()
			if err == nil || !errors.Is(err, ErrInvalidSpec) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want ErrInvalidSpec containing %q", err, tc.want)
			}
		})
	}
}

// TestSynthReportGolden pins one synth/v1 grid end-to-end — spec in,
// report bytes out — the synth analogue of TestReportGolden. The echoed
// spec carries the *canonical* parameter sets (defaults explicit), so
// knob-default drift breaks this file too.
func TestSynthReportGolden(t *testing.T) {
	sess := NewSession(2)
	rep, err := sess.Run(context.Background(), synthGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	got := renderGolden(t, rep)

	golden := filepath.Join("testdata", "synth_report_v1.golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/sim -run TestSynthReportGolden -update` to create it)", err)
	}
	if string(got) != string(want) {
		t.Errorf("synth report drifted from golden file %s;\nif the change is deliberate, bump the synth version and cache-key version and regenerate with -update.\ngot:\n%s", golden, got)
	}
}

// TestSynthCacheKey pins the sc2 content-address semantics for inline
// scenarios: spelling-invariant, knob-sensitive, and disjoint from both
// the built-in-workload key space and the retired sc1 key space.
func TestSynthCacheKey(t *testing.T) {
	base := func() ShardSpec {
		p := synth.Params{Name: "synth-a"}
		return ShardSpec{
			Workload: "synth-a",
			Synth:    &p,
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

	// Same params, same key — across separate computations and across
	// spellings (defaults omitted versus explicit).
	if key(base()) != ref {
		t.Error("identical synth specs produced different keys")
	}
	explicit := base()
	c, err := explicit.Synth.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	explicit.Synth = &c
	if key(explicit) != ref {
		t.Error("canonical spelling changed the key")
	}

	// Every single knob change changes the key.
	knobs := map[string]func(*synth.Params){
		"seed":     func(p *synth.Params) { p.Seed = 7 },
		"mixture":  func(p *synth.Params) { p.BiasedFrac, p.CorrelatedFrac, p.NoisyFrac = 0.8, 0.15, 0.05 },
		"bias":     func(p *synth.Params) { p.Bias = 0.99 },
		"blocklen": func(p *synth.Params) { p.BlockLen = 4 },
		"depth":    func(p *synth.Params) { p.LoopDepth = 3 },
		"trips":    func(p *synth.Params) { p.TripCounts = []int{12, 20} },
		"funcs":    func(p *synth.Params) { p.Funcs = 6 },
		"calls":    func(p *synth.Params) { p.CallFanout = 3 },
		"fanout":   func(p *synth.Params) { p.IndirectFanout = 2 },
		"dispatch": func(p *synth.Params) { p.Dispatch = synth.DispatchWeighted },
		"hot":      func(p *synth.Params) { p.HotFrac = 0.5 },
	}
	for name, mut := range knobs {
		sp := base()
		mut(sp.Synth)
		if key(sp) == ref {
			t.Errorf("changing synth knob %s did not change the key", name)
		}
	}

	// sc2 is the only key space this build emits, and sc1 keys can never
	// collide with it: the version prefix disagrees before any hash byte
	// is compared.
	registered := ShardSpec{
		Workload: "comd-lite",
		Seed:     1,
		Insts:    10_000,
		Observer: ObserverSpec{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small"]}`)},
	}
	for _, k := range []string{ref, key(registered)} {
		if !strings.HasPrefix(k, "sc2-") {
			t.Errorf("key %q does not carry the sc2 version prefix", k)
		}
		if strings.HasPrefix(k, "sc1-") {
			t.Errorf("key %q collides with the retired sc1 key space", k)
		}
	}
	if key(registered) == ref {
		t.Error("built-in and synth shard share a key")
	}

	// Invalid synth params are keyless with a typed error, same as any
	// invalid spec.
	bad := base()
	bad.Synth.Bias = 0.1
	if _, err := bad.CacheKey(); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("invalid synth params: CacheKey err = %v, want ErrInvalidSpec", err)
	}
}

// TestSynthWarmCacheBitIdentical extends the warm-cache acceptance check
// to the synth path: a second pass over an inline-scenario grid is served
// entirely from the sc2-keyed cache and renders bit-identical.
func TestSynthWarmCacheBitIdentical(t *testing.T) {
	sess := newCachedSession(t, 2, t.TempDir())
	cold, err := sess.Run(context.Background(), synthGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sess.Run(context.Background(), synthGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := range warm.Shards {
		if !warm.Shards[i].Cached {
			t.Errorf("warm synth shard %d (%s/%s seed %d) not served from cache", i,
				warm.Shards[i].Workload, warm.Shards[i].Observer, warm.Shards[i].Seed)
		}
	}
	if s := sess.Cache().Stats(); int(s.Misses) != len(cold.Shards) {
		t.Errorf("cache misses = %d, want one per cold shard (%d)", s.Misses, len(cold.Shards))
	}
	coldJSON, warmJSON := renderGolden(t, cold), renderGolden(t, warm)
	if string(coldJSON) != string(warmJSON) {
		t.Errorf("warm synth report differs from cold:\ncold:\n%s\nwarm:\n%s", coldJSON, warmJSON)
	}
}

// TestSynthColdRunsDeterministic is the cold-versus-cold determinism
// check: two fresh sessions (separate compile caches, no result cache)
// over the same inline grid render bit-identical reports. The CI synth
// smoke repeats this across real processes.
func TestSynthColdRunsDeterministic(t *testing.T) {
	render := func() []byte {
		rep, err := NewSession(2).Run(context.Background(), synthGridSpec())
		if err != nil {
			t.Fatal(err)
		}
		return renderGolden(t, rep)
	}
	a, b := render(), render()
	if string(a) != string(b) {
		t.Errorf("cold synth runs differ across fresh sessions:\nfirst:\n%s\nsecond:\n%s", a, b)
	}
}

// TestSynthShardRoundTrip drives one synth shard through the full wire
// contract — encode, decode against the spec, re-encode — as a remote
// worker's response would travel.
func TestSynthShardRoundTrip(t *testing.T) {
	sess := NewSession(1)
	p := synth.Params{Name: "synth-wire"}
	spec := ShardSpec{
		Workload: "synth-wire",
		Synth:    &p,
		Seed:     3,
		Insts:    10_000,
		Observer: ObserverSpec{Kind: "branch-mix"},
	}
	sh, err := sess.RunShard(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Workload != "synth-wire" || sh.Insts < spec.Insts {
		t.Fatalf("shard = %+v", sh)
	}
	enc, err := EncodeShard(sh)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeShard(enc, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	re, err := EncodeShard(dec)
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != string(re) {
		t.Errorf("synth shard wire round-trip not a fixed point:\n%s\n%s", enc, re)
	}

	// The spec itself survives its wire encoding with the params intact.
	data, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeShardSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Synth == nil || back.Synth.Name != "synth-wire" {
		t.Errorf("shard spec lost its synth params over the wire: %+v", back)
	}
	k1, err := spec.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := back.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("wire round-trip changed the content address: %s vs %s", k1, k2)
	}
}

// TestCompiledSynthBounded: the open-ended synth key space must not grow
// a long-lived session's compile cache without bound; past the cap the
// oldest synth entries evict while built-in workloads stay resident.
func TestCompiledSynthBounded(t *testing.T) {
	sess := NewSession(1)
	if _, err := sess.Compiled("comd-lite"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxSynthCompiled+8; i++ {
		p := synth.Params{Name: "bound", Seed: uint64(i + 1)}
		if _, err := sess.CompiledSynth(&p); err != nil {
			t.Fatal(err)
		}
	}
	sess.mu.Lock()
	entries, tracked := len(sess.compiled), len(sess.synthKeys)
	_, registeredKept := sess.compiled["comd-lite"]
	sess.mu.Unlock()
	if tracked != maxSynthCompiled || entries != maxSynthCompiled+1 {
		t.Errorf("compile cache holds %d entries (%d synth), want %d synth + 1 built-in",
			entries, tracked, maxSynthCompiled)
	}
	if !registeredKept {
		t.Error("built-in workload evicted by synth pressure")
	}
	// An evicted scenario recompiles transparently.
	p := synth.Params{Name: "bound", Seed: 1}
	if _, err := sess.CompiledSynth(&p); err != nil {
		t.Errorf("evicted scenario failed to recompile: %v", err)
	}
}
