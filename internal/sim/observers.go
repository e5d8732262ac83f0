package sim

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"rebalance/internal/analysis"
	"rebalance/internal/bpred"
	"rebalance/internal/btb"
	"rebalance/internal/icache"
	"rebalance/internal/program"
	"rebalance/internal/trace"
)

// The analysis collectors' factories: each kind is one configuration
// whose shard observer wraps a fresh collector.
var (
	branchMixFactory = analysisFactory("branch-mix", func(*program.Program) ShardObserver {
		mix := analysis.NewBranchMix()
		return newLaneShard(mix, func() Result { return mix.Result() })
	}, func() Result { return &analysis.MixResult{} }, analysis.NewMixTarget)
	biasFactory = analysisFactory("bias", func(*program.Program) ShardObserver {
		bias := analysis.NewBias()
		return newLaneShard(bias, func() Result { return bias.Result() })
	}, func() Result { return &analysis.BiasResult{} }, analysis.NewBiasTarget)
	footprintFactory = analysisFactory("footprint", func(p *program.Program) ShardObserver {
		fp := analysis.NewFootprint()
		return newLaneShard(fp, func() Result { return fp.Result(p.TextSize) })
	}, func() Result { return &analysis.FootprintResult{} }, analysis.NewFootprintTarget)
	bblFactory = analysisFactory("bbl", func(*program.Program) ShardObserver {
		bbl := analysis.NewBBL()
		return newLaneShard(bbl, func() Result { return bbl.Result() })
	}, func() Result { return &analysis.BBLResult{} }, analysis.NewBBLTarget)
)

// laneShard is a lane consumer's lone ShardObserver — what RunShard and
// bench/ get: a feed with one consumer, which takes a source's lanes and
// scans what arrives as instructions.
type laneShard struct {
	*trace.Feed
	result func() Result
}

func newLaneShard(c trace.LaneConsumer, result func() Result) laneShard {
	return laneShard{trace.NewFeed(c), result}
}

func (s laneShard) Finish() (Result, error) { return s.result(), nil }

// groupObservers builds the fresh power-on observers of one group's pending
// members, cfgs[k] being member k's configuration: feed is what the
// coordinate's stream is delivered to — one lane consumer, so nothing is
// scanned or expanded on the way — and finish[k] takes member k's result
// once the pass is over.
// The plain bpred members share one multi-predictor bpred.Sim — the paper's
// several-configurations-one-pintool shape — which compacts the lane's
// conditional branches once and walks each distinct component (base
// predictor, the one loop table) once. Lane consumers share no state with one
// another, and a predictor component's state is a function of its geometry
// and the branch sequence alone, so the one walked for several members is
// the one each would have walked alone: a member's result is bit-identical
// to a lone NewObserver's; the shards stay separate results under separate
// keys.
func groupObservers(cfgs []ObserverConfig, p *program.Program) (feed *trace.Feed, finish []func() (Result, error)) {
	finish = make([]func() (Result, error), len(cfgs))
	var lanes []trace.LaneConsumer
	var names []string // the plain bpred members, and where each sits in cfgs
	var at []int
	for k, cfg := range cfgs {
		if c, ok := cfg.(bpredCfg); ok {
			names, at = append(names, c.name), append(at, k)
			continue
		}
		obs := cfg.NewObserver(p)
		finish[k] = obs.Finish
		lanes = append(lanes, obs)
	}
	if len(names) > 0 {
		sim := bpredSim(names...)
		lanes = append(lanes, sim)
		for i, k := range at {
			finish[k] = func() (Result, error) { return &sim.Results()[i], nil }
		}
	}
	return trace.NewFeed(lanes...), finish
}

// --- bpred ---

// bpredOptions selects predictor configurations by name, each at most
// once. Grouped chooses the report shape, not whether predictors share a
// pass — the executor shares one among a coordinate's plain configurations
// on its own (see groupObservers). With Grouped false (default) every
// configuration is its own shard: separately keyed, cached, dispatched and
// reported, the sweep-grid shape rebalance-bench uses. With Grouped true
// the configurations are one shard whose result is the array of theirs
// (the paper's several-pintools-one-run shape, as one cache and dispatch
// unit). Parallel is read as Grouped; it is accepted so specs that name it
// keep decoding.
type bpredOptions struct {
	Configs  []string `json:"configs"`
	Grouped  bool     `json:"grouped"`
	Parallel bool     `json:"parallel"`
}

func bpredFactory(opts json.RawMessage) ([]ObserverConfig, error) {
	var o bpredOptions
	if err := strictDecode(opts, &o); err != nil {
		return nil, err
	}
	if len(o.Configs) == 0 {
		o.Configs = bpred.ConfigNames()
	}
	for i, name := range o.Configs {
		if !bpred.HasConfig(name) {
			return nil, fmt.Errorf("unknown predictor config %q (have %v)", name, bpred.ConfigNames())
		}
		if slices.Contains(o.Configs[:i], name) {
			return nil, fmt.Errorf("duplicate predictor config %q", name)
		}
	}
	if o.Grouped || o.Parallel {
		return []ObserverConfig{bpredGroupCfg{names: o.Configs}}, nil
	}
	cfgs := make([]ObserverConfig, len(o.Configs))
	for i, name := range o.Configs {
		cfgs[i] = bpredCfg{name: name}
	}
	return cfgs, nil
}

type bpredCfg struct{ name string }

func (c bpredCfg) Key() string { return "bpred/" + c.name }

func (c bpredCfg) NewObserver(*program.Program) ShardObserver {
	sim := bpredSim(c.name)
	return newLaneShard(sim, func() Result { return &sim.Results()[0] })
}

// bpredSim returns a fresh simulator over the named configurations, in
// order.
func bpredSim(names ...string) *bpred.Sim {
	preds := make([]bpred.Predictor, len(names))
	for i, name := range names {
		p, err := bpred.NewByName(name)
		if err != nil {
			panic(err) // name was validated at expansion
		}
		preds[i] = p
	}
	return bpred.NewSim(preds...)
}

func (c bpredCfg) NewResult() Result { return &bpred.Result{} }

func (c bpredCfg) Spec() ObserverSpec { return bpredSpec([]string{c.name}, false) }

// bpredSpec re-describes predictor configurations as the bytes json.Marshal
// writes for their bpredOptions. Every cache key reads a Spec (see
// ShardCacheKey), so each kind's is written by hand. Parallel is always
// written false: every cached bpred key was computed with the field in place,
// so keeping it keeps those keys byte-identical, and a spec that sets it
// takes the grouped shard's key — an entry cached under the old parallel key
// is missed and recomputed, never served in place of another.
func bpredSpec(names []string, grouped bool) ObserverSpec {
	b, _ := appendAll(append(make([]byte, 0, 64), `{"configs":`...), names, func(name string, b []byte) ([]byte, error) {
		return appendString(b, name), nil
	})
	b = strconv.AppendBool(append(b, `,"grouped":`...), grouped)
	return ObserverSpec{Kind: "bpred", Options: append(b, `,"parallel":false}`...)}
}

func (c bpredCfg) DecodeTarget() (any, func() (Result, error)) {
	return target(bpred.NewTarget, func(r *bpred.Result) error {
		if r.Name != c.name {
			return fmt.Errorf("sim: decoded bpred result for %q, want %q", r.Name, c.name)
		}
		return nil
	})
}

type bpredGroupCfg struct{ names []string }

func (c bpredGroupCfg) Key() string { return "bpred/" + strings.Join(c.names, "+") }

func (c bpredGroupCfg) NewObserver(*program.Program) ShardObserver {
	sim := bpredSim(c.names...)
	return newLaneShard(sim, func() Result { return bpredGroup(sim.Results()) })
}

// bpredGroup is the grouped shard's result: the array of its predictors'.
func bpredGroup(rs []bpred.Result) *GroupResult {
	out := &GroupResult{Results: make([]Result, len(rs))}
	for i := range rs {
		out.Results[i] = &rs[i]
	}
	return out
}

func (c bpredGroupCfg) NewResult() Result {
	rs := make([]Result, len(c.names))
	for i := range rs {
		rs[i] = &bpred.Result{}
	}
	return &GroupResult{Results: rs}
}

func (c bpredGroupCfg) Spec() ObserverSpec { return bpredSpec(c.names, true) }

// DecodeTarget decodes the grouped artifact: a JSON array with one bpred
// result per configured predictor, in configuration order, each member
// parsed in place through its own configuration's target.
func (c bpredGroupCfg) DecodeTarget() (any, func() (Result, error)) {
	ptrs := make([]any, len(c.names))
	builds := make([]func() (Result, error), len(c.names))
	for i, name := range c.names {
		ptrs[i], builds[i] = bpredCfg{name: name}.DecodeTarget()
	}
	return &ptrs, func() (Result, error) {
		if len(ptrs) != len(builds) {
			return nil, fmt.Errorf("sim: bpred group result has %d members, want %d", len(ptrs), len(builds))
		}
		out := &GroupResult{Results: make([]Result, len(builds))}
		for i, build := range builds {
			r, err := build()
			if err != nil {
				return nil, fmt.Errorf("sim: bpred group member %d: %w", i, err)
			}
			out.Results[i] = r
		}
		return out, nil
	}
}

// --- btb ---

// btbOptions selects BTB geometries; empty geometries select the standard
// Figure 7 grid ({256, 512, 1K} entries x {2, 4, 8} ways).
type btbOptions struct {
	Geometries []btbGeometry `json:"geometries"`
}

type btbGeometry struct {
	Entries int `json:"entries"`
	Ways    int `json:"ways"`
}

func btbFactory(opts json.RawMessage) ([]ObserverConfig, error) {
	var o btbOptions
	if err := strictDecode(opts, &o); err != nil {
		return nil, err
	}
	if len(o.Geometries) == 0 {
		for _, entries := range []int{256, 512, 1024} {
			for _, ways := range []int{2, 4, 8} {
				o.Geometries = append(o.Geometries, btbGeometry{Entries: entries, Ways: ways})
			}
		}
	}
	cfgs := make([]ObserverConfig, len(o.Geometries))
	for i, g := range o.Geometries {
		if err := btb.GeometryError(g.Entries, g.Ways); err != nil {
			return nil, err
		}
		cfgs[i] = btbCfg{g}
	}
	return cfgs, nil
}

type btbCfg struct{ g btbGeometry }

func (c btbCfg) Key() string { return fmt.Sprintf("btb/%dx%d", c.g.Entries, c.g.Ways) }

func (c btbCfg) NewObserver(*program.Program) ShardObserver {
	b := btb.New(c.g.Entries, c.g.Ways)
	return newLaneShard(b, func() Result { return b.Result() })
}

func (c btbCfg) NewResult() Result { return &btb.Result{} }

func (c btbCfg) Spec() ObserverSpec {
	return ObserverSpec{Kind: "btb", Options: fmt.Appendf(nil, `{"geometries":[{"entries":%d,"ways":%d}]}`, c.g.Entries, c.g.Ways)}
}

func (c btbCfg) DecodeTarget() (any, func() (Result, error)) {
	return target(btb.NewTarget, func(r *btb.Result) error {
		if r.Entries != c.g.Entries || r.Ways != c.g.Ways {
			return fmt.Errorf("sim: decoded btb result for %dx%d, want %dx%d", r.Entries, r.Ways, c.g.Entries, c.g.Ways)
		}
		return nil
	})
}

// --- icache ---

// icacheOptions selects cache geometries; empty geometries select the
// standard Figure 8 grid ({8, 16, 32}KB x {2, 4, 8} ways, 64B lines).
type icacheOptions struct {
	Geometries []icacheGeometry `json:"geometries"`
}

type icacheGeometry struct {
	SizeKB    int `json:"size_kb"`
	LineBytes int `json:"line_bytes"`
	Ways      int `json:"ways"`
}

func icacheFactory(opts json.RawMessage) ([]ObserverConfig, error) {
	var o icacheOptions
	if err := strictDecode(opts, &o); err != nil {
		return nil, err
	}
	if len(o.Geometries) == 0 {
		for _, kb := range []int{8, 16, 32} {
			for _, ways := range []int{2, 4, 8} {
				o.Geometries = append(o.Geometries, icacheGeometry{SizeKB: kb, LineBytes: 64, Ways: ways})
			}
		}
	}
	cfgs := make([]ObserverConfig, len(o.Geometries))
	for i, g := range o.Geometries {
		if g.LineBytes == 0 {
			g.LineBytes = 64
		}
		if g.SizeKB <= 0 || g.SizeKB > icache.MaxSizeBytes/1024 { // before SizeKB*1024 can overflow
			return nil, fmt.Errorf("icache: size %dKB outside 1..%dKB", g.SizeKB, icache.MaxSizeBytes/1024)
		}
		if err := icache.GeometryError(g.SizeKB*1024, g.LineBytes, g.Ways); err != nil {
			return nil, err
		}
		cfgs[i] = icacheCfg{g}
	}
	return cfgs, nil
}

type icacheCfg struct{ g icacheGeometry }

func (c icacheCfg) Key() string {
	return fmt.Sprintf("icache/%dKB-%dB-%dw", c.g.SizeKB, c.g.LineBytes, c.g.Ways)
}

func (c icacheCfg) NewObserver(*program.Program) ShardObserver {
	ic := icache.New(c.g.SizeKB*1024, c.g.LineBytes, c.g.Ways)
	return newLaneShard(ic, func() Result { return ic.Result() })
}

func (c icacheCfg) NewResult() Result { return &icache.Result{} }

func (c icacheCfg) Spec() ObserverSpec {
	return ObserverSpec{Kind: "icache", Options: fmt.Appendf(nil, `{"geometries":[{"size_kb":%d,"line_bytes":%d,"ways":%d}]}`,
		c.g.SizeKB, c.g.LineBytes, c.g.Ways)}
}

func (c icacheCfg) DecodeTarget() (any, func() (Result, error)) {
	return target(icache.NewTarget, func(r *icache.Result) error {
		if r.SizeBytes != c.g.SizeKB*1024 || r.LineBytes != c.g.LineBytes || r.Ways != c.g.Ways {
			return fmt.Errorf("sim: decoded icache result for %s, want %s", r.Name, c.Key())
		}
		return nil
	})
}

// --- analysis collectors ---

// analysisFactory wraps a single-configuration analysis collector; the
// collectors take no options, so any options payload is rejected.
func analysisFactory[R Result](key string, newObs func(*program.Program) ShardObserver, newRes func() Result, newTarget func() (any, func() (R, error))) observerFactory {
	return func(opts json.RawMessage) ([]ObserverConfig, error) {
		if err := strictDecode(opts, &struct{}{}); err != nil {
			return nil, err
		}
		return []ObserverConfig{analysisCfg{key: key, newObs: newObs, newRes: newRes,
			newTarget: func() (any, func() (Result, error)) { return target(newTarget, nil) }}}, nil
	}
}

type analysisCfg struct {
	key       string
	newObs    func(*program.Program) ShardObserver
	newRes    func() Result
	newTarget func() (any, func() (Result, error))
}

func (c analysisCfg) Key() string                                  { return c.key }
func (c analysisCfg) NewObserver(p *program.Program) ShardObserver { return c.newObs(p) }
func (c analysisCfg) NewResult() Result                            { return c.newRes() }
func (c analysisCfg) Spec() ObserverSpec                           { return ObserverSpec{Kind: c.key} }
func (c analysisCfg) DecodeTarget() (any, func() (Result, error))  { return c.newTarget() }
