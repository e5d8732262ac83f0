package main

import (
	"context"
	"encoding/json"
	"fmt"

	"rebalance/internal/isa"
	"rebalance/internal/sim"
	"rebalance/internal/trace"
	"rebalance/internal/trace/replay"
)

// nopObserver is the cheapest possible consumer of a stream: timing a
// producer into it measures the producer alone.
type nopObserver struct{}

func (nopObserver) Observe(isa.Inst)        {}
func (nopObserver) ObserveBatch([]isa.Inst) {}

// readObserver reads every instruction and keeps nothing: the cheapest
// consumer that still pulls the whole stream through the cache hierarchy,
// so delivering a resident trace to it costs the memory-streaming floor.
type readObserver struct{ sum isa.Addr }

func (o *readObserver) Observe(in isa.Inst) { o.sum += in.PC }

func (o *readObserver) ObserveBatch(b []isa.Inst) {
	sum := o.sum
	for i := range b {
		sum += b[i].PC
	}
	o.sum = sum
}

// spanObserver wraps a shard observer so every batch it is handed becomes a
// child span of the producer's span (trace.generate or replay.deliver):
// the producer's self time is then what is left after its consumers.
type spanObserver struct {
	inner  sim.ShardObserver
	batch  trace.BatchObserver // inner's batch path, nil if it has none
	tr     *tracer
	name   string
	parent int
	sweep  int
}

func newSpanObserver(inner sim.ShardObserver, tr *tracer, key string, parent, sweep int) *spanObserver {
	bo, _ := inner.(trace.BatchObserver)
	return &spanObserver{inner: inner, batch: bo, tr: tr, name: "observe." + key, parent: parent, sweep: sweep}
}

func (o *spanObserver) Observe(in isa.Inst) { o.inner.Observe(in) }

func (o *spanObserver) ObserveBatch(b []isa.Inst) {
	start := o.tr.now()
	if o.batch != nil {
		o.batch.ObserveBatch(b)
	} else {
		for i := range b {
			o.inner.Observe(b[i])
		}
	}
	o.tr.add(o.name, start, o.tr.now(), o.parent, o.sweep, nil)
}

// closeObserver releases observer-owned goroutines, as the session does.
func closeObserver(o sim.ShardObserver) {
	if cl, ok := o.(interface{ Close() }); ok {
		cl.Close()
	}
}

// handDriver walks a workload's grid on one goroutine, calling the layers
// in the order the session does, one span per call.
type handDriver struct {
	ctx   context.Context
	e     *env
	tr    *tracer
	root  int
	sweep int
	err   error
}

// call records one span around fn unless an earlier step already failed.
func (h *handDriver) call(name string, fn func() error) {
	if h.err != nil {
		return
	}
	id := h.tr.open(name, h.root, h.sweep)
	h.err = fn()
	h.tr.finish(id)
}

// handDriven executes e's sweep by hand and checks that the result is an
// equivalent execution: the hand-built report's normalised digest must
// equal want, so every shard encodes byte-identically to Session.Run's.
// ref supplies the normalised spec the report echoes.
func handDriven(ctx context.Context, e *env, tr *tracer, sweepID int, ref *sim.Report, want string) error {
	h := &handDriver{ctx: ctx, e: e, tr: tr, sweep: sweepID}
	h.root = tr.open("sweep.hand_driven", 0, sweepID)
	defer tr.finish(h.root)

	units := e.def.units()
	seeds := e.spec.Seeds
	cfgs := make([]sim.ObserverConfig, len(units))
	for ci, u := range units {
		var err error
		if cfgs[ci], err = unitConfig(u); err != nil {
			return err
		}
	}
	shards := make([]sim.Shard, len(gridWorkloads)*len(units)*len(seeds))
	at := func(wi, ci, si int) *sim.Shard { return &shards[(wi*len(units)+ci)*len(seeds)+si] }
	shardSpec := func(w string, ci int, seed uint64) sim.ShardSpec {
		return sim.ShardSpec{Workload: w, Seed: seed, Insts: e.spec.Insts, Engine: e.spec.Engine, Observer: units[ci]}
	}

	// A cold sweep records into a fresh store; prepare swaps one in and
	// collects the last sweep's, exactly as before a timed cold sweep.
	if err := e.prepare(); err != nil {
		return err
	}

	for wi, w := range gridWorkloads {
		var c *trace.Compiled
		if e.def.mode != modeCached && e.def.mode != modeCoordinator {
			h.call("session.compiled", func() (err error) { c, err = e.sess.Compiled(w); return })
		}
		switch e.def.mode {
		case modeGenerate:
			for ci := range units {
				for si, seed := range seeds {
					*at(wi, ci, si) = h.generateShard(c, w, cfgs[ci], seed)
				}
			}
		case modeReplayWarm, modeReplayCold:
			for si, seed := range seeds {
				out := h.replayCoordinate(c, shardSpec(w, 0, seed), cfgs)
				for ci := range out {
					*at(wi, ci, si) = out[ci]
				}
			}
		case modeCached:
			for ci := range units {
				for si, seed := range seeds {
					ss := shardSpec(w, ci, seed)
					var key string
					var data []byte
					h.call("sim.cache_key", func() (err error) { key, err = ss.CacheKey(); return })
					h.call("shardcache.get", func() error {
						var ok bool
						if data, ok = e.cache.Get(key); !ok {
							return fmt.Errorf("shard %s/%s seed %d is not in the pre-filled cache", w, cfgs[ci].Key(), seed)
						}
						return nil
					})
					h.call("sim.decode_shard", func() (err error) { *at(wi, ci, si), err = sim.DecodeShard(data, ss, cfgs[ci]); return })
				}
			}
		case modeCoordinator:
			for ci := range units {
				for si, seed := range seeds {
					h.call("dispatch.run_shard", func() (err error) {
						*at(wi, ci, si), err = e.rig.backend.RunShard(ctx, shardSpec(w, ci, seed))
						return
					})
				}
			}
		}
	}

	rep := &sim.Report{Schema: sim.SchemaV1, Spec: ref.Spec, Shards: shards}
	for wi, w := range gridWorkloads {
		for ci, cfg := range cfgs {
			acc := cfg.NewResult()
			for si := range seeds {
				h.call("sim.merge", func() error { return acc.Merge(at(wi, ci, si).Result) })
			}
			rep.Merged = append(rep.Merged, sim.Merged{Workload: w, Observer: cfg.Key(), Seeds: len(seeds), Result: acc})
		}
	}
	for i := range shards {
		rep.TotalInsts += shards[i].Insts
	}
	h.call("report.encode", func() error { _, err := json.Marshal(rep); return err })
	if h.err != nil {
		return fmt.Errorf("hand-driven sweep: %w", h.err)
	}
	got, err := reportDigest(rep)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%w: hand-driven sweep digest %s differs from Session.Run's %s", errIncorrect, got, want)
	}
	return nil
}

// generateShard is the storeless shard: a fresh executor streaming into a
// fresh observer.
func (h *handDriver) generateShard(c *trace.Compiled, w string, cfg sim.ObserverConfig, seed uint64) sim.Shard {
	var obs sim.ShardObserver
	h.call("sim.new_observer", func() error { obs = cfg.NewObserver(c.Program()); return nil })
	if h.err != nil {
		return sim.Shard{}
	}
	defer closeObserver(obs)
	ex := trace.NewCompiledExecutor(c, seed)
	ex.SetContext(h.ctx)
	gen := h.tr.open("trace.generate", h.root, h.sweep)
	ex.Attach(newSpanObserver(obs, h.tr, cfg.Key(), gen, h.sweep))
	h.err = ex.Run(h.e.spec.Insts)
	h.tr.finish(gen)
	sh := sim.Shard{Workload: w, Seed: seed, Observer: cfg.Key(), Insts: ex.Emitted()}
	h.call("sim.finish", func() (err error) { sh.Result, err = obs.Finish(); return })
	h.call("sim.encode_shard", func() error { _, err := sim.EncodeShard(sh); return err })
	return sh
}

// replayCoordinate is one (workload, seed) unit of a replaying session:
// fetch or record the stream once, deliver it to every observer in a single
// pass. lead names the coordinate; cfgs are the grid's configurations.
func (h *handDriver) replayCoordinate(c *trace.Compiled, lead sim.ShardSpec, cfgs []sim.ObserverConfig) []sim.Shard {
	out := make([]sim.Shard, len(cfgs))
	var key string
	var tr *replay.Trace
	h.call("sim.trace_key", func() (err error) { key, err = lead.TraceKey(); return })
	if h.e.def.mode == modeReplayWarm {
		h.call("replay.store_hit", func() error {
			var ok bool
			if tr, ok = h.e.store.Get(key); !ok {
				return fmt.Errorf("coordinate %s seed %d is not in the pre-filled store", lead.Workload, lead.Seed)
			}
			return nil
		})
	} else {
		h.call("replay.record", func() error {
			rec := replay.NewRecorder()
			rec.Reserve(int(lead.Insts))
			ex := trace.NewCompiledExecutor(c, lead.Seed)
			ex.SetContext(h.ctx)
			ex.Attach(rec)
			if err := ex.Run(lead.Insts); err != nil {
				return err
			}
			tr = rec.Trace()
			return nil
		})
		h.call("replay.store_put", func() error { h.e.store.Put(key, tr); return nil })
	}
	if h.err != nil {
		return out
	}
	obs := make([]sim.ShardObserver, len(cfgs))
	h.call("sim.new_observer", func() error {
		for i, cfg := range cfgs {
			obs[i] = cfg.NewObserver(c.Program())
		}
		return nil
	})
	defer func() {
		for _, o := range obs {
			closeObserver(o)
		}
	}()
	deliver := h.tr.open("replay.deliver", h.root, h.sweep)
	wrapped := make([]trace.Observer, len(obs))
	for i, o := range obs {
		wrapped[i] = newSpanObserver(o, h.tr, cfgs[i].Key(), deliver, h.sweep)
	}
	h.err = replay.Deliver(h.ctx, tr, trace.BatchSize, wrapped...)
	h.tr.finish(deliver)
	for i, cfg := range cfgs {
		out[i] = sim.Shard{Workload: lead.Workload, Seed: lead.Seed, Observer: cfg.Key(), Insts: int64(tr.Len())}
		h.call("sim.finish", func() (err error) { out[i].Result, err = obs[i].Finish(); return })
		h.call("sim.encode_shard", func() error { _, err := sim.EncodeShard(out[i]); return err })
	}
	return out
}
