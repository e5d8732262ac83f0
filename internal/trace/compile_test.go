package trace_test

import (
	"reflect"
	"testing"

	"rebalance/internal/analysis"
	"rebalance/internal/bpred"
	"rebalance/internal/btb"
	"rebalance/internal/icache"
	"rebalance/internal/isa"
	"rebalance/internal/trace"
	"rebalance/internal/workload"
)

// streamHash fingerprints the full emitted stream (every field of every
// instruction, in order) so two engines can be compared bit-for-bit without
// storing the stream. It implements both observer interfaces with the same
// accumulation, so batch boundaries cannot influence the digest.
type streamHash struct {
	h uint64
	n int64
}

func newStreamHash() *streamHash { return &streamHash{h: 0xcbf29ce484222325} }

func (s *streamHash) add(in *isa.Inst) {
	mix := func(v uint64) {
		s.h ^= v
		s.h *= 0x100000001b3
	}
	mix(uint64(in.PC))
	mix(uint64(in.Size))
	mix(uint64(in.Kind))
	mix(uint64(in.Target))
	var bits uint64
	if in.Taken {
		bits |= 1
	}
	if in.Serial {
		bits |= 2
	}
	mix(bits)
	s.n++
}

func (s *streamHash) Observe(in isa.Inst) { s.add(&in) }

func (s *streamHash) ObserveBatch(batch []isa.Inst) {
	for i := range batch {
		s.add(&batch[i])
	}
}

// observerSet is one full complement of observers plus the stream digest.
type observerSet struct {
	hash *streamHash
	sim  *bpred.Sim
	btb  *btb.BTB
	ic   *icache.Cache
	mix  *analysis.BranchMix
	bias *analysis.Bias
	fp   *analysis.Footprint
	bbl  *analysis.BBL
}

func newObserverSet() *observerSet {
	return &observerSet{
		hash: newStreamHash(),
		sim:  bpred.NewSim(bpred.StandardConfigs()...),
		btb:  btb.New(512, 4),
		ic:   icache.New(16*1024, 64, 4),
		mix:  analysis.NewBranchMix(),
		bias: analysis.NewBias(),
		fp:   analysis.NewFootprint(),
		bbl:  analysis.NewBBL(),
	}
}

func (o *observerSet) attach(e *trace.Executor) {
	e.Attach(o.hash, trace.NewFeed(o.sim, o.btb, o.ic, o.mix, o.bias, o.bbl, o.fp))
}

// TestCompiledMatchesReference proves the tentpole's correctness claim: the
// compiled+batched engine emits a bit-identical stream and produces
// byte-identical observer results to the retained tree-walk engine, across
// multiple workloads and seeds.
func TestCompiledMatchesReference(t *testing.T) {
	const target = 400_000
	for _, name := range workload.Names() {
		for _, seed := range []uint64{1, 0xdecafbad} {
			prog := workload.MustBuild(name)

			ref := newObserverSet()
			re := trace.NewExecutor(prog, seed)
			ref.attach(re)
			if err := re.RunReference(target); err != nil {
				t.Fatalf("%s/%#x: reference run: %v", name, seed, err)
			}

			cmp := newObserverSet()
			ce := trace.NewExecutor(prog, seed)
			cmp.attach(ce)
			if err := ce.Run(target); err != nil {
				t.Fatalf("%s/%#x: compiled run: %v", name, seed, err)
			}

			if re.Emitted() != ce.Emitted() {
				t.Fatalf("%s/%#x: emitted %d (reference) != %d (compiled)", name, seed, re.Emitted(), ce.Emitted())
			}
			if ref.hash.n != cmp.hash.n || ref.hash.h != cmp.hash.h {
				t.Fatalf("%s/%#x: stream digests differ: reference {n=%d h=%#x} compiled {n=%d h=%#x}",
					name, seed, ref.hash.n, ref.hash.h, cmp.hash.n, cmp.hash.h)
			}
			if !reflect.DeepEqual(ref.sim.Results(), cmp.sim.Results()) {
				t.Errorf("%s/%#x: predictor results differ:\nreference: %+v\ncompiled:  %+v",
					name, seed, ref.sim.Results(), cmp.sim.Results())
			}
			for _, r := range []struct {
				what     string
				ref, cmp any
			}{
				{"BTB", ref.btb.Result(), cmp.btb.Result()},
				{"icache", ref.ic.Result(), cmp.ic.Result()},
				{"branch-mix", ref.mix.Result(), cmp.mix.Result()},
				{"bias", ref.bias.Result(), cmp.bias.Result()},
				{"footprint", ref.fp.Result(prog.TextSize), cmp.fp.Result(prog.TextSize)},
				{"BBL", ref.bbl.Result(), cmp.bbl.Result()},
			} {
				if !reflect.DeepEqual(r.ref, r.cmp) {
					t.Errorf("%s/%#x: %s results differ:\nreference: %+v\ncompiled:  %+v", name, seed, r.what, r.ref, r.cmp)
				}
			}
		}
	}
}

// TestDeterminism checks the executor contract: same program and seed give
// a bit-identical stream; different seeds diverge.
func TestDeterminism(t *testing.T) {
	const target = 200_000
	for _, name := range workload.Names() {
		digest := func(seed uint64) *streamHash {
			h := newStreamHash()
			e := trace.NewExecutor(workload.MustBuild(name), seed)
			e.Attach(h)
			if err := e.Run(target); err != nil {
				t.Fatalf("%s: run: %v", name, err)
			}
			return h
		}
		a, b := digest(7), digest(7)
		if a.h != b.h || a.n != b.n {
			t.Errorf("%s: identical seeds produced different streams", name)
		}
		c := digest(8)
		if a.h == c.h {
			t.Errorf("%s: different seeds produced identical streams", name)
		}
	}
}

// TestSharedCompiledProgram checks that one Compiled can back several
// executors and that executor-local state keeps their streams independent
// yet reproducible — the property the parallel sweep harness relies on.
func TestSharedCompiledProgram(t *testing.T) {
	prog := workload.MustBuild("comd-lite")
	c, err := trace.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed uint64) *streamHash {
		h := newStreamHash()
		e := trace.NewCompiledExecutor(c, seed)
		e.Attach(h)
		if err := e.Run(150_000); err != nil {
			t.Fatal(err)
		}
		return h
	}
	a1, a2, b := run(3), run(3), run(4)
	if a1.h != a2.h {
		t.Error("shared compiled program broke determinism")
	}
	if a1.h == b.h {
		t.Error("seeds not independent under a shared compiled program")
	}
}

// TestRunTargetAndContinuation checks overshoot-to-consistent-state and that
// successive Runs continue the same stream.
func TestRunTargetAndContinuation(t *testing.T) {
	prog := workload.MustBuild("xalan-lite")
	e := trace.NewExecutor(prog, 11)
	if err := e.Run(50_000); err != nil {
		t.Fatal(err)
	}
	if e.Emitted() < 50_000 {
		t.Errorf("emitted %d < target 50000", e.Emitted())
	}
	first := e.Emitted()
	if err := e.Run(50_000); err != nil {
		t.Fatal(err)
	}
	if e.Emitted() < first+50_000 {
		t.Errorf("second run emitted only %d more instructions", e.Emitted()-first)
	}
}

// TestObserverFuncAdapter checks that a plain per-instruction ObserverFunc
// still sees every instruction on the compiled path.
func TestObserverFuncAdapter(t *testing.T) {
	prog := workload.MustBuild("comd-lite")
	var n int64
	e := trace.NewExecutor(prog, 5)
	e.Attach(trace.ObserverFunc(func(isa.Inst) { n++ }))
	if err := e.Run(30_000); err != nil {
		t.Fatal(err)
	}
	if n != e.Emitted() {
		t.Errorf("adapter saw %d instructions, executor emitted %d", n, e.Emitted())
	}
}
