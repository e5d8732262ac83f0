package main

import (
	"strings"

	"rebalance/internal/bpred"
	"rebalance/internal/sim/dispatch"
)

// endToEndDef is one metric a user of the system sees. Bounds are per
// workload (workloadDef.bounds); BENCHMARK.json, which can hold one bound
// per metric, carries the loosest.
type endToEndDef struct {
	name, unit, better string
}

// All times are host time: the simulator's own cost per simulated event.
// Simulated statistics are checked for exact equality, not measured. The
// three sweep metrics are read off the calmest window of a run (calmest).
var endToEndDefs = []endToEndDef{
	{"setup_s", "s", "lower"},
	{"sweep_wall_ms_p50", "ms", "lower"},
	{"sweep_wall_ms_tail", "ms", "lower"},
	{"throughput_minst_per_s", "Minst/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
}

// layerDef is one per-layer metric and the end-to-end metric it is expected
// to move, written down before measuring.
type layerDef struct {
	name, unit, better, moves string
}

// Shorthands for the moves column.
const (
	mvSetup    = "setup_s on every workload"
	mvFig5     = "throughput_minst_per_s on fig5-generate"
	mvGen      = "throughput_minst_per_s on fig5-generate (small share) and mixed9-replay-cold; no move on mixed9-replay-warm, mixed9-cached-rerun"
	mvWarm     = "throughput_minst_per_s on mixed9-replay-warm"
	mvCold     = "sweep_wall_ms_p50 on mixed9-replay-cold; setup_s on mixed9-replay-warm"
	mvDisk     = "no current workload (disk tier); recorded to judge the shared-codec rewrite"
	mvRSS      = "peak_rss_mb on mixed9-replay-warm and mixed9-replay-cold"
	mvBig      = "throughput_minst_per_s on fig5-generate and both replay workloads; no move on mixed9-cached-rerun"
	mvCheap    = "throughput_minst_per_s on mixed9-replay-warm; negligible on fig5-generate"
	mvCached   = "sweep_wall_ms_p50 on mixed9-cached-rerun and coord-dispatch-small"
	mvCacheHit = "sweep_wall_ms_p50 on mixed9-cached-rerun; no move elsewhere (no cache attached)"
	mvCoord    = "sweep_wall_ms_p50 and throughput_minst_per_s on coord-dispatch-small only"
	mvTail     = "sweep_wall_ms_tail on every workload (the slowest unit sets the sweep)"
	mvAlloc    = "peak_rss_mb and sweep_wall_ms_tail on mixed9-replay-cold"
	mvExact    = "nothing: exact simulated count, must be identical on every commit"
	mvInfo     = "nothing: reported, not gated"
)

// layerDefs lists every per-layer metric in output order, grouped by the
// repo module it measures.
var layerDefs = buildLayerDefs()

func buildLayerDefs() []layerDef {
	defs := []layerDef{
		// workload, workload/synth, program
		{"workload.build_ms", "ms", "lower", mvSetup},
		{"synth.build_ms", "ms", "lower", mvSetup},
		// trace
		{"trace.compile_ms", "ms", "lower", mvSetup},
		{"trace.generate_ns_per_inst", "ns/inst", "lower", mvGen},
		{"trace.generate_ref_ns_per_inst", "ns/inst", "lower", "nothing in these workloads; recorded for the reference-engine-as-oracle decision"},
		// trace/replay
		{"replay.record_ns_per_inst", "ns/inst", "lower", mvCold},
		{"replay.deliver_ns_per_inst", "ns/inst", "lower", mvWarm},
		{"replay.encode_ns_per_inst", "ns/inst", "lower", mvDisk},
		{"replay.decode_ns_per_inst", "ns/inst", "lower", mvDisk},
		{"replay.store_put_disk_ms", "ms", "lower", mvDisk},
		{"replay.store_disk_hit_ms", "ms", "lower", mvDisk},
		{"replay.store_mem_hit_us", "us", "lower", mvWarm},
		{"replay.resident_bytes_per_inst", "B/inst", "lower", mvRSS},
		{"replay.disk_bytes_per_inst", "B/inst", "lower", mvDisk},
		{"replay.store_hits_per_sweep", "count", "higher", mvExact},
		{"replay.store_misses_per_sweep", "count", "lower", mvExact},
		{"replay.store_evictions_per_sweep", "count", "lower", mvExact},
		{"replay.warm_speedup_vs_generate", "ratio", "higher", "base: mixed9 generate wall; sweep_wall_ms_p50 on mixed9-replay-warm"},
		{"replay.cold_speedup_vs_generate", "ratio", "higher", "base: mixed9 generate wall; sweep_wall_ms_p50 on mixed9-replay-cold"},
	}
	// bpred
	for _, name := range bpred.ConfigNames() {
		moves := mvFig5
		if strings.HasSuffix(name, "-big") {
			moves = mvBig
		}
		defs = append(defs, layerDef{"bpred.observe_ns_per_inst." + name, "ns/inst", "lower", moves})
	}
	return append(defs, []layerDef{
		{"bpred.grouped9_ns_per_inst", "ns/inst", "lower", mvFig5},
		{"bpred.parallel9_ns_per_inst", "ns/inst", "lower", mvFig5},
		{"bpred.branches", "count", "lower", mvExact},
		{"bpred.mispredicts", "count", "lower", mvExact},
		// btb, icache, analysis
		{"btb.observe_ns_per_inst", "ns/inst", "lower", mvCheap},
		{"btb.lookups", "count", "lower", mvExact},
		{"btb.misses", "count", "lower", mvExact},
		{"icache.observe_ns_per_inst", "ns/inst", "lower", mvCheap},
		{"icache.accesses", "count", "lower", mvExact},
		{"icache.misses", "count", "lower", mvExact},
		{"analysis.mix_ns_per_inst", "ns/inst", "lower", mvCheap},
		{"analysis.bias_ns_per_inst", "ns/inst", "lower", mvCheap},
		{"analysis.footprint_ns_per_inst", "ns/inst", "lower", mvCheap},
		{"analysis.bbl_ns_per_inst", "ns/inst", "lower", mvCheap},
		// sim
		{"sim.shard_fixed_us", "us", "lower", "sweep_wall_ms_p50 on coord-dispatch-small; under 1% elsewhere"},
		{"sim.shard_encode_us", "us", "lower", mvCached},
		{"sim.shard_decode_us", "us", "lower", mvCached},
		{"sim.cache_key_us", "us", "lower", mvCached},
		{"sim.merge_us", "us", "lower", mvCached},
		{"sim.report_encode_ms", "ms", "lower", mvCached},
		{"sim.report_decode_ms", "ms", "lower", mvCached},
		{"sim.shard_elapsed_ms_p50", "ms", "lower", mvTail},
		{"sim.shard_elapsed_ms_p99", "ms", "lower", mvTail},
		{"sim.worker_utilization", "ratio", "higher", mvTail},
		{"sim.run_overhead_ms", "ms", "lower", mvTail},
		{"sim.scaling_efficiency", "ratio", "higher", "base: GOMAXPROCS x fig5 throughput at one worker; " + mvFig5},
		{"sim.alloc_mb_per_sweep", "MiB", "lower", mvAlloc},
		{"sim.gc_cycles_per_sweep", "count", "lower", mvAlloc},
		{"sim.model_error_pct", "%", "lower", mvInfo},
		// sim/shardcache
		{"shardcache.mem_get_us", "us", "lower", mvCacheHit},
		{"shardcache.mem_put_us", "us", "lower", mvCacheHit},
		{"shardcache.do_hit_us", "us", "lower", mvCacheHit},
		{"shardcache.disk_get_us", "us", "lower", mvDisk},
		{"shardcache.disk_put_us", "us", "lower", mvDisk},
		{"shardcache.hit_ratio", "ratio", "higher", mvExact},
		{"shardcache.evictions_per_sweep", "count", "lower", mvExact},
		// sim/dispatch
		{"dispatch.shard_rtt_us_p50", "us", "lower", mvCoord},
		{"dispatch.shard_rtt_us_p99", "us", "lower", "sweep_wall_ms_tail on coord-dispatch-small"},
		{"dispatch.runshards_overhead_us_per_shard", "us", "lower", mvCoord},
		{"dispatch.wire_bytes_per_shard", "B", "lower", mvCoord},
		{"dispatch.hedges", "count", "lower", mvExact},
		{"dispatch.hedge_wins", "count", "lower", mvExact},
		{"dispatch.probes", "count", "lower", mvExact},
		// sim/sweep
		{"sweep.submit_us", "us", "lower", mvCoord},
		{"sweep.queue_wait_us_p50", "us", "lower", mvCoord},
		{"sweep.coord_overhead_ms", "ms", "lower", mvCoord},
		// the harness itself
		{"bench.trace_overhead_pct", "%", "lower", mvInfo},
		{"failed_ops_ratio", "ratio", "lower", "any increase is a failure; counted in shards"},
	}...)
}

// layerTable collects per-layer values by name during a traced run.
type layerTable struct {
	value     map[string]float64
	repMedian map[string]float64
}

func newLayerTable() *layerTable {
	return &layerTable{value: map[string]float64{}, repMedian: map[string]float64{}}
}

func (t *layerTable) set(name string, v float64) { t.value[name] = v }

// setReps records a unit cost as the minimum of its repetitions, with the
// median beside it.
func (t *layerTable) setReps(name string, reps []float64) {
	t.setMinMedian(name, minOf(reps), median(reps))
}

func (t *layerTable) setMinMedian(name string, lo, med float64) {
	t.value[name] = lo
	t.repMedian[name] = med
}

func (t *layerTable) get(name string) float64 { return t.value[name] }

// setDispatchStats records a dispatcher's counters: exact, and 0 unless
// something failed or straggled.
func (t *layerTable) setDispatchStats(st dispatch.Stats) {
	t.set("dispatch.hedges", float64(st.Hedges))
	t.set("dispatch.hedge_wins", float64(st.HedgeWins))
	t.set("dispatch.probes", float64(st.Probes))
}

// rows renders the table in layerDefs order. A metric that does not apply
// to the traced workload (no cache attached, no dispatcher) reads 0.
func (t *layerTable) rows() []metricRow {
	out := make([]metricRow, len(layerDefs))
	for i, d := range layerDefs {
		out[i] = metricRow{Name: d.name, Unit: d.unit, Better: d.better, Moves: d.moves, Values: []float64{t.value[d.name]}, RepMedian: t.repMedian[d.name]}
		out[i].summarize()
	}
	return out
}
