package sim

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"rebalance/internal/analysis"
	"rebalance/internal/bpred"
	"rebalance/internal/btb"
	"rebalance/internal/icache"
	"rebalance/internal/isa"
	"rebalance/internal/wire"
)

// The oracles of the one-pass record codec are the encode and decode it
// replaced: wire structs that nest each result as a json.RawMessage,
// marshalled by encoding/json, and the two-level decode that reads a record
// with its result left raw and then decodes the result alone.

type oracleShardWire struct {
	Workload  string          `json:"workload"`
	Seed      uint64          `json:"seed"`
	Observer  string          `json:"observer"`
	Insts     int64           `json:"insts"`
	ElapsedNS int64           `json:"elapsed_ns"`
	Cached    bool            `json:"cached,omitempty"`
	Result    json.RawMessage `json:"result"`
}

type oracleMergedWire struct {
	Workload string          `json:"workload"`
	Observer string          `json:"observer"`
	Seeds    int             `json:"seeds"`
	Result   json.RawMessage `json:"result"`
}

type oracleReportWire struct {
	Schema       string             `json:"schema"`
	Spec         *Spec              `json:"spec"`
	Workers      int                `json:"workers"`
	Shards       []oracleShardWire  `json:"shards"`
	FailedShards []FailedShard      `json:"failed_shards,omitempty"`
	Merged       []oracleMergedWire `json:"merged"`
	TotalInsts   int64              `json:"total_insts"`
	WallNS       int64              `json:"wall_ns"`
}

func oracleResult(t testing.TB, r Result) json.RawMessage {
	t.Helper()
	if r == nil {
		return json.RawMessage("null")
	}
	enc, err := r.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func oracleShard(t testing.TB, sh Shard) oracleShardWire {
	return oracleShardWire{Workload: sh.Workload, Seed: sh.Seed, Observer: sh.Observer, Insts: sh.Insts,
		ElapsedNS: sh.ElapsedNS, Cached: sh.Cached, Result: oracleResult(t, sh.Result)}
}

func oracleMerged(t testing.TB, m Merged) oracleMergedWire {
	return oracleMergedWire{Workload: m.Workload, Observer: m.Observer, Seeds: m.Seeds, Result: oracleResult(t, m.Result)}
}

func oracleReport(t testing.TB, r *Report) oracleReportWire {
	w := oracleReportWire{Schema: r.Schema, Spec: r.Spec, Workers: r.Workers, FailedShards: r.FailedShards,
		TotalInsts: r.TotalInsts, WallNS: r.WallNS}
	if r.Shards != nil {
		w.Shards = make([]oracleShardWire, len(r.Shards))
		for i, sh := range r.Shards {
			w.Shards[i] = oracleShard(t, sh)
		}
	}
	if r.Merged != nil {
		w.Merged = make([]oracleMergedWire, len(r.Merged))
		for i, m := range r.Merged {
			w.Merged[i] = oracleMerged(t, m)
		}
	}
	return w
}

// decodeResult parses one result artifact on its own through cfg.
func decodeResult(data []byte, cfg ObserverConfig) (Result, error) {
	return wire.Decode(data, cfg.ScanResult)
}

// decodeShardTwoLevel is the decode DecodeShard replaced: the record with
// its result raw, the identity checks, then the result decoded alone.
func decodeShardTwoLevel(data []byte, spec ShardSpec, cfg ObserverConfig) (Shard, error) {
	var w oracleShardWire
	if err := wire.StrictUnmarshal(data, &w); err != nil {
		return Shard{}, err
	}
	if w.Workload != spec.Workload || w.Seed != spec.Seed || w.Observer != cfg.Key() {
		return Shard{}, fmt.Errorf("identity mismatch")
	}
	if w.Insts < spec.Insts {
		return Shard{}, fmt.Errorf("short shard")
	}
	res, err := decodeResult(w.Result, cfg)
	if err != nil {
		return Shard{}, err
	}
	return Shard{Workload: w.Workload, Seed: w.Seed, Observer: w.Observer, Insts: w.Insts,
		ElapsedNS: w.ElapsedNS, Cached: w.Cached, Result: res}, nil
}

// awkwardNames are strings encoding/json must escape, or must not: HTML
// characters, the JS line terminators, control characters, invalid UTF-8,
// quotes and backslashes, and plain multi-byte text. Synth scenario names
// are user input, so any of them can reach a record.
var awkwardNames = []string{
	"a<b>&c",
	"line\u2028sep\u2029end",
	"ctl\x00\x01\x1f\t\n\r\b\f\x7f",
	"bad\xff\xfe utf8 \xed\xa0\x80 \xc3",
	`quote"back\slash/`,
	"ünïcödé ✓ 𝄞",
	"",
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	cases := append([]string{"plain-ascii_0.9 name"}, awkwardNames...)
	for c := 0; c < 256; c++ {
		cases = append(cases, string([]byte{'x', byte(c), 'y'}))
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := wire.AppendString([]byte("prefix"), s); string(got) != "prefix"+string(want) {
			t.Errorf("wire.AppendString(%q) = %s, want %s", s, got[len("prefix"):], want)
		}
	}
}

// recordTestReport runs one of every observer kind, plus a grouped bpred
// configuration, over two workloads and two seeds.
func recordTestReport(t *testing.T) *Report {
	t.Helper()
	spec := goldenRunSpec()
	spec.Insts = 10_000
	spec.Observers = append(fullObserverSpecs(), ObserverSpec{
		Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small","tage-small"],"grouped":true}`),
	})
	rep, err := NewSession(2).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRecordAppendersMatchEncodingJSON: Shard, Merged and Report write
// exactly the bytes json.Marshal wrote for the nested-RawMessage wire
// structs they replaced — the real grid, every name encoding/json escapes,
// nil and empty lists, failed shards present and absent, cached marks and
// nil results.
func TestRecordAppendersMatchEncodingJSON(t *testing.T) {
	base := recordTestReport(t)
	variant := func(edit func(r *Report)) *Report {
		r := *base
		r.Shards = append([]Shard(nil), base.Shards...)
		r.Merged = append([]Merged(nil), base.Merged...)
		edit(&r)
		return &r
	}
	cases := map[string]*Report{
		"real":         base,
		"nil lists":    variant(func(r *Report) { r.Shards, r.Merged = nil, nil }),
		"empty lists":  variant(func(r *Report) { r.Shards, r.Merged = []Shard{}, []Merged{} }),
		"nil spec":     variant(func(r *Report) { r.Spec = nil }),
		"empty failed": variant(func(r *Report) { r.FailedShards = []FailedShard{} }),
		"cached+nil":   variant(func(r *Report) { r.Shards[0].Cached, r.Shards[1].Result, r.Merged[0].Result = true, nil, nil }),
		"failed shards": variant(func(r *Report) {
			r.FailedShards = []FailedShard{{Workload: "w", Seed: 3, Observer: "bbl", Attempts: 2, Error: "boom"}}
		}),
	}
	for i, name := range awkwardNames {
		cases[fmt.Sprintf("name %d", i)] = variant(func(r *Report) {
			r.Schema = name
			for k := range r.Shards {
				r.Shards[k].Workload, r.Shards[k].Observer = name, name+"/obs"
			}
			for k := range r.Merged {
				r.Merged[k].Workload, r.Merged[k].Observer = name, "obs/"+name
			}
			r.FailedShards = []FailedShard{{Workload: name, Observer: name, Error: name}}
		})
	}
	for name, rep := range cases {
		t.Run(name, func(t *testing.T) {
			want, err := json.Marshal(oracleReport(t, rep))
			if err != nil {
				t.Fatal(err)
			}
			direct, err := rep.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(direct, want) || !bytes.Equal(got, want) {
				t.Fatalf("report bytes differ from the oracle's:\nMarshalJSON:  %.300s\njson.Marshal: %.300s\noracle:       %.300s", direct, got, want)
			}
			wantIndent, _ := json.MarshalIndent(oracleReport(t, rep), "", "  ")
			if gotIndent, err := json.MarshalIndent(rep, "", "  "); err != nil || !bytes.Equal(gotIndent, wantIndent) {
				t.Fatalf("indented report differs from the oracle's (err %v)", err)
			}
			for _, sh := range rep.Shards {
				want, _ := json.Marshal(oracleShard(t, sh))
				if got, err := EncodeShard(sh); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("EncodeShard = %s (err %v), want %s", got, err, want)
				}
			}
			for _, m := range rep.Merged {
				want, _ := json.Marshal(oracleMerged(t, m))
				if got, err := json.Marshal(m); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("Merged encodes as %s (err %v), want %s", got, err, want)
				}
			}
		})
	}
	var results []Result
	for _, sh := range base.Shards {
		results = append(results, sh.Result)
	}
	for _, m := range base.Merged {
		results = append(results, m.Result)
	}
	t.Run("artifacts", func(t *testing.T) {
		for _, r := range append(results, edgeResults()...) {
			want, werr := json.Marshal(oracleWire(t, r))
			got, err := r.AppendJSON(nil)
			if (err != nil) != (werr != nil) || !bytes.Equal(got, want) {
				t.Errorf("%T appends %s (err %v), json.Marshal of its wire struct %s (err %v)", r, got, err, want, werr)
			}
		}
	})
}

// edgeResults are results of every kind the grid does not produce: zero
// and near-overflow counters, floats at both notations' boundaries and
// beyond json's reach, and names encoding/json escapes.
func edgeResults() []Result {
	const big = math.MaxInt64
	const bigInt = math.MaxInt // the int fields' largest on the host
	out := []Result{&bpred.Result{}, &btb.Result{}, &icache.Result{}, &analysis.MixResult{}, &analysis.BBLResult{},
		&analysis.BiasResult{}, &analysis.FootprintResult{}, &GroupResult{Results: []Result{}}}
	for _, name := range awkwardNames {
		out = append(out,
			&bpred.Result{Name: name, CostBits: bigInt, Insts: [2]int64{big, 3}, Branches: [2]int64{big, 1}, Miss: [2][isa.NumDirections]int64{{1, 0, big}, {1, 2, 0}}},
			&btb.Result{Name: name, Entries: 1, Ways: bigInt, Insts: [2]int64{1, 0}, Lookups: [2]int64{0, big}, Misses: [2]int64{big / 2, 7}},
			&icache.Result{Name: name, Insts: [2]int64{3, 0}, Accesses: [2]int64{big, 0}, Misses: [2]int64{1, big}, UsedSectors: 1, TotalSectors: big})
	}
	for _, sums := range [][2]float64{{1e-7, 9.999999e-7}, {1e21, 1e20}, {5e-324, 0.1}, {math.MaxFloat64, 1}, {math.MaxFloat64, math.MaxFloat64}, {math.Inf(1), 0}, {math.NaN(), 1}} {
		out = append(out, &analysis.BBLResult{BlockSum: sums, BlockN: [2]int64{1, 3}, GapSum: [2]float64{sums[1], 0}, GapN: [2]int64{0, 1}})
	}
	out = append(out,
		&analysis.MixResult{Insts: [2]int64{big, 1}, Kinds: [2][isa.NumKinds]int64{{1, 2, 3, 4, 5, 6, 7, big}, {0, 0, 0, 0, 0, 0, 0, 1}}},
		&analysis.BiasResult{Sites: map[isa.Addr]analysis.SiteBias{math.MaxUint64: {Exec: [2]int64{3, 1}, Taken: [2]int64{1, 1}}, 0: {Exec: [2]int64{1, 0}}},
			Dirs: [2][isa.NumDirections]int64{{1, 2, big}, {0, 0, 1}}, Conds: [2]int64{big, 1}},
		&analysis.FootprintResult{StaticBytes: big, Chunks: [2]map[uint64]int64{{math.MaxUint64: 1, 0: big}, {7: 3}}},
		&GroupResult{Results: []Result{&bpred.Result{Name: "a<b>"}, &bpred.Result{Insts: [2]int64{1, 1}, Miss: [2][isa.NumDirections]int64{{1}}}}})
	return out
}

// TestDecodeShardRejectsAbsentResult: a record whose result is missing or
// null is refused for every configuration, while the same record with its
// result decodes.
func TestDecodeShardRejectsAbsentResult(t *testing.T) {
	rep := recordTestReport(t)
	cfgs, err := expandObservers(rep.Spec.Observers)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]ObserverConfig{}
	for _, cfg := range cfgs {
		byKey[cfg.Key()] = cfg
	}
	for _, sh := range rep.Shards {
		cfg, spec := byKey[sh.Observer], ShardSpec{Workload: sh.Workload, Seed: sh.Seed, Insts: sh.Insts}
		enc, err := EncodeShard(sh)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeShard(enc, spec, cfg); err != nil {
			t.Fatalf("%s: intact record rejected: %v", sh.Observer, err)
		}
		at := bytes.Index(enc, []byte(`,"result":`))
		for _, rec := range []string{string(enc[:at]) + "}", string(enc[:at]) + `,"result":null}`} {
			if _, err := DecodeShard([]byte(rec), spec, cfg); err == nil {
				t.Errorf("%s: record without a result accepted: %.120s", sh.Observer, rec)
			}
		}
	}
}

// repeatsKey reports whether data is an object naming key more than once,
// matched as encoding/json matches a field name (case-insensitively).
func repeatsKey(data []byte, key string) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	n := 0
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if name, ok := tok.(string); ok && strings.EqualFold(name, key) {
			n++
		}
		var skip json.RawMessage
		if dec.Decode(&skip) != nil {
			return false
		}
	}
	return n > 1
}

// The oracles of each kind's artifact are the wire structs json.Marshal
// wrote it from before the appenders, and StrictUnmarshal read it into,
// built here from the results' exported counters and derived figures.

type oracleBpredWire struct {
	Name         string                      `json:"name"`
	CostBits     int                         `json:"cost_bits"`
	Insts        [2]int64                    `json:"insts"`
	Branches     [2]int64                    `json:"branches"`
	Miss         [2][isa.NumDirections]int64 `json:"miss"`
	MPKI         float64                     `json:"mpki"`
	MPKISerial   float64                     `json:"mpki_serial"`
	MPKIParallel float64                     `json:"mpki_parallel"`
	MissRate     float64                     `json:"miss_rate"`
	MPKIByDir    [isa.NumDirections]float64  `json:"mpki_by_direction"`
}

type oracleBTBWire struct {
	Name         string   `json:"name"`
	Entries      int      `json:"entries"`
	Ways         int      `json:"ways"`
	Insts        [2]int64 `json:"insts"`
	Lookups      [2]int64 `json:"lookups"`
	Misses       [2]int64 `json:"misses"`
	MPKI         float64  `json:"mpki"`
	MPKISerial   float64  `json:"mpki_serial"`
	MPKIParallel float64  `json:"mpki_parallel"`
	MissRate     float64  `json:"miss_rate"`
}

type oracleICacheWire struct {
	Name         string   `json:"name"`
	SizeBytes    int      `json:"size_bytes"`
	LineBytes    int      `json:"line_bytes"`
	Ways         int      `json:"ways"`
	Insts        [2]int64 `json:"insts"`
	Accesses     [2]int64 `json:"accesses"`
	Misses       [2]int64 `json:"misses"`
	UsedSectors  int64    `json:"used_sectors"`
	TotalSectors int64    `json:"total_sectors"`
	MPKI         float64  `json:"mpki"`
	MPKISerial   float64  `json:"mpki_serial"`
	MPKIParallel float64  `json:"mpki_parallel"`
	MissRate     float64  `json:"miss_rate"`
	Usefulness   float64  `json:"usefulness"`
}

type oracleMixWire struct {
	Insts     [analysis.NumPhases]int64              `json:"insts"`
	BranchPct [analysis.NumPhases]float64            `json:"branch_pct"`
	KindPct   map[string][analysis.NumPhases]float64 `json:"kind_pct"`
	Counters  struct {
		Insts [2]int64               `json:"insts"`
		Kinds [2][isa.NumKinds]int64 `json:"kinds"`
	} `json:"counters"`
}

type oracleBBLWire struct {
	Blocks        [analysis.NumPhases]int64   `json:"blocks"`
	AvgBlockB     [analysis.NumPhases]float64 `json:"avg_block_bytes"`
	AvgTakenDistB [analysis.NumPhases]float64 `json:"avg_taken_dist_bytes"`
	Counters      struct {
		BlockSum [2]float64 `json:"block_sum"`
		BlockN   [2]int64   `json:"block_n"`
		GapSum   [2]float64 `json:"gap_sum"`
		GapN     [2]int64   `json:"gap_n"`
	} `json:"counters"`
}

type oracleSiteWire struct {
	PC    uint64   `json:"pc"`
	Exec  [2]int64 `json:"exec"`
	Taken [2]int64 `json:"taken"`
}

type oracleBiasWire struct {
	Sites       int                             `json:"sites"`
	Buckets     [analysis.NumPhases][10]float64 `json:"buckets_pct"`
	BiasedPct   [analysis.NumPhases]float64     `json:"biased_pct"`
	BackwardPct [analysis.NumPhases]float64     `json:"backward_pct"`
	ForwardPct  [analysis.NumPhases]float64     `json:"forward_pct"`
	TakenPct    [analysis.NumPhases]float64     `json:"taken_pct"`
	Counters    struct {
		Sites []oracleSiteWire            `json:"sites"`
		Dirs  [2][isa.NumDirections]int64 `json:"dirs"`
		Conds [2]int64                    `json:"conds"`
	} `json:"counters"`
}

type oracleChunkWire struct {
	Chunk  uint64 `json:"chunk"`
	Weight int64  `json:"weight"`
}

type oracleFootprintWire struct {
	StaticKB  float64                     `json:"static_kb"`
	Dyn99KB   [analysis.NumPhases]float64 `json:"dyn99_kb"`
	TouchedKB [analysis.NumPhases]float64 `json:"touched_kb"`
	Counters  struct {
		StaticBytes int64                `json:"static_bytes"`
		Chunks      [2][]oracleChunkWire `json:"chunks"`
	} `json:"counters"`
}

// oracleWire returns the old wire struct of r, a built-in result.
func oracleWire(t testing.TB, r Result) any {
	t.Helper()
	switch r := r.(type) {
	case *bpred.Result:
		return oracleBpredWire{Name: r.Name, CostBits: r.CostBits, Insts: r.Insts, Branches: r.Branches, Miss: r.Miss,
			MPKI: r.MPKI(), MPKISerial: r.MPKISerial(), MPKIParallel: r.MPKIParallel(), MissRate: r.MissRate(),
			MPKIByDir: [isa.NumDirections]float64{r.MPKIByDirection(isa.DirNotTaken), r.MPKIByDirection(isa.DirTakenBackward), r.MPKIByDirection(isa.DirTakenForward)}}
	case *btb.Result:
		return oracleBTBWire{Name: r.Name, Entries: r.Entries, Ways: r.Ways, Insts: r.Insts, Lookups: r.Lookups, Misses: r.Misses,
			MPKI: r.MPKI(), MPKISerial: r.MPKISerial(), MPKIParallel: r.MPKIParallel(), MissRate: r.MissRate()}
	case *icache.Result:
		return oracleICacheWire{Name: r.Name, SizeBytes: r.SizeBytes, LineBytes: r.LineBytes, Ways: r.Ways,
			Insts: r.Insts, Accesses: r.Accesses, Misses: r.Misses, UsedSectors: r.UsedSectors, TotalSectors: r.TotalSectors,
			MPKI: r.MPKI(), MPKISerial: r.MPKISerial(), MPKIParallel: r.MPKIParallel(), MissRate: r.MissRate(), Usefulness: r.Usefulness()}
	case *analysis.MixResult:
		var w oracleMixWire
		w.Counters.Insts, w.Counters.Kinds = r.Insts, r.Kinds
		w.KindPct = map[string][analysis.NumPhases]float64{}
		for pi, p := range analysis.Phases {
			w.Insts[pi], w.BranchPct[pi] = r.InstCount(p), r.BranchPct(p)
		}
		for k := 0; k < isa.NumKinds && r.Insts != [2]int64{}; k++ {
			var pcts [analysis.NumPhases]float64
			for pi, p := range analysis.Phases {
				pcts[pi] = r.KindPct(p, isa.Kind(k))
			}
			w.KindPct[isa.Kind(k).String()] = pcts
		}
		return w
	case *analysis.BBLResult:
		var w oracleBBLWire
		w.Counters.BlockSum, w.Counters.BlockN, w.Counters.GapSum, w.Counters.GapN = r.BlockSum, r.BlockN, r.GapSum, r.GapN
		for pi, p := range analysis.Phases {
			w.Blocks[pi], w.AvgBlockB[pi], w.AvgTakenDistB[pi] = r.Blocks(p), r.AvgBlockBytes(p), r.AvgTakenDistance(p)
		}
		return w
	case *analysis.BiasResult:
		var w oracleBiasWire
		w.Sites, w.Counters.Dirs, w.Counters.Conds = len(r.Sites), r.Dirs, r.Conds
		w.Counters.Sites = []oracleSiteWire{}
		for pc, s := range r.Sites {
			w.Counters.Sites = append(w.Counters.Sites, oracleSiteWire{PC: uint64(pc), Exec: s.Exec, Taken: s.Taken})
		}
		slices.SortFunc(w.Counters.Sites, func(a, b oracleSiteWire) int { return cmp.Compare(a.PC, b.PC) })
		for pi, p := range analysis.Phases {
			h := r.Histogram(p)
			for b := range w.Buckets[pi] {
				w.Buckets[pi][b] = 100 * h.Fraction(b)
			}
			w.BiasedPct[pi] = 100 * (h.Fraction(0) + h.Fraction(h.Buckets()-1))
			back, fwd := r.TakenDirection(p)
			if back+fwd > 0 {
				w.BackwardPct[pi], w.ForwardPct[pi] = 100*float64(back)/float64(back+fwd), 100*float64(fwd)/float64(back+fwd)
			}
			if conds := [...]int64{r.Conds[0] + r.Conds[1], r.Conds[0], r.Conds[1]}[pi]; conds > 0 {
				w.TakenPct[pi] = 100 * float64(back+fwd) / float64(conds)
			}
		}
		return w
	case *analysis.FootprintResult:
		var w oracleFootprintWire
		w.Counters.StaticBytes, w.StaticKB = r.StaticBytes, float64(r.StaticBytes)/1024
		for i, chunks := range r.Chunks {
			w.Counters.Chunks[i] = []oracleChunkWire{}
			for c, n := range chunks {
				w.Counters.Chunks[i] = append(w.Counters.Chunks[i], oracleChunkWire{Chunk: c, Weight: n})
			}
			slices.SortFunc(w.Counters.Chunks[i], func(a, b oracleChunkWire) int { return cmp.Compare(a.Chunk, b.Chunk) })
		}
		for pi, p := range analysis.Phases {
			w.Dyn99KB[pi], w.TouchedKB[pi] = float64(r.DynamicBytes(p, 0.99))/1024, float64(r.DynamicBytes(p, 1.0))/1024
		}
		return w
	case *GroupResult:
		ws := []any{}
		for _, m := range r.Results {
			ws = append(ws, oracleWire(t, m))
		}
		return ws
	}
	t.Fatalf("no oracle wire struct for %T", r)
	return nil
}

// oracleRecord is a shard record with its result typed by its kind's old
// wire struct, so StrictUnmarshal reaches inside the result.
type oracleRecord[W any] struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Observer  string `json:"observer"`
	Insts     int64  `json:"insts"`
	ElapsedNS int64  `json:"elapsed_ns"`
	Cached    bool   `json:"cached,omitempty"`
	Result    *W     `json:"result"`
}

func oracleRead[W any](data []byte, build func(*W) Result) (Shard, error) {
	var w oracleRecord[W]
	if err := wire.StrictUnmarshal(data, &w); err != nil {
		return Shard{}, err
	}
	if w.Result == nil {
		return Shard{}, errors.New("record without a result")
	}
	return Shard{Workload: w.Workload, Seed: w.Seed, Observer: w.Observer, Insts: w.Insts, ElapsedNS: w.ElapsedNS,
		Cached: w.Cached, Result: build(w.Result)}, nil
}

func (w *oracleBpredWire) result() Result {
	return &bpred.Result{Name: w.Name, CostBits: w.CostBits, Insts: w.Insts, Branches: w.Branches, Miss: w.Miss}
}

// oracleDecodeRecord is the strict decode the scanner replaced: the record
// StrictUnmarshal'd with cfg's kind's old wire struct as its result, and
// the result rebuilt from the counters.
func oracleDecodeRecord(t testing.TB, data []byte, cfg ObserverConfig) (Shard, error) {
	switch key := cfg.Key(); {
	case strings.HasPrefix(key, "bpred/") && strings.Contains(key, "+"):
		return oracleRead(data, func(ws *[]oracleBpredWire) Result {
			g := &GroupResult{}
			for i := range *ws {
				g.Results = append(g.Results, (*ws)[i].result())
			}
			return g
		})
	case strings.HasPrefix(key, "bpred/"):
		return oracleRead(data, (*oracleBpredWire).result)
	case strings.HasPrefix(key, "btb/"):
		return oracleRead(data, func(w *oracleBTBWire) Result {
			return &btb.Result{Name: w.Name, Entries: w.Entries, Ways: w.Ways, Insts: w.Insts, Lookups: w.Lookups, Misses: w.Misses}
		})
	case strings.HasPrefix(key, "icache/"):
		return oracleRead(data, func(w *oracleICacheWire) Result {
			return &icache.Result{Name: w.Name, SizeBytes: w.SizeBytes, LineBytes: w.LineBytes, Ways: w.Ways, Insts: w.Insts,
				Accesses: w.Accesses, Misses: w.Misses, UsedSectors: w.UsedSectors, TotalSectors: w.TotalSectors}
		})
	case key == "branch-mix":
		return oracleRead(data, func(w *oracleMixWire) Result {
			return &analysis.MixResult{Insts: w.Counters.Insts, Kinds: w.Counters.Kinds}
		})
	case key == "bbl":
		return oracleRead(data, func(w *oracleBBLWire) Result {
			c := &w.Counters
			return &analysis.BBLResult{BlockSum: c.BlockSum, BlockN: c.BlockN, GapSum: c.GapSum, GapN: c.GapN}
		})
	case key == "bias":
		return oracleRead(data, func(w *oracleBiasWire) Result {
			r := &analysis.BiasResult{Sites: map[isa.Addr]analysis.SiteBias{}, Dirs: w.Counters.Dirs, Conds: w.Counters.Conds}
			for _, s := range w.Counters.Sites {
				r.Sites[isa.Addr(s.PC)] = analysis.SiteBias{Exec: s.Exec, Taken: s.Taken}
			}
			return r
		})
	case key == "footprint":
		return oracleRead(data, func(w *oracleFootprintWire) Result {
			r := &analysis.FootprintResult{StaticBytes: w.Counters.StaticBytes}
			for i, cs := range w.Counters.Chunks {
				r.Chunks[i] = map[uint64]int64{}
				for _, c := range cs {
					r.Chunks[i][c.Chunk] = c.Weight
				}
			}
			return r
		})
	}
	t.Fatalf("no oracle decode for %s", cfg.Key())
	return Shard{}, nil
}
