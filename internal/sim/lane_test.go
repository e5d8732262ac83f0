package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"rebalance/internal/analysis"
	"rebalance/internal/bpred"
	"rebalance/internal/btb"
	"rebalance/internal/icache"
	"rebalance/internal/isa"
	"rebalance/internal/program"
	"rebalance/internal/trace"
	"rebalance/internal/trace/replay"
	"rebalance/internal/workload"
	"rebalance/internal/workload/synth"
)

// lanePair is one lane consumer and the per-instruction model it must agree
// with, byte for byte of AppendJSON.
type lanePair struct {
	name      string
	lane      trace.LaneConsumer
	model     trace.Observer
	got, want func() Result
}

// newLanePairs returns a fresh pair per observer kind. The I-cache
// geometries span the narrowest accepted line (16B, where a 15-byte
// instruction straddles a line and a sector at once), a width that is not a
// power of two, and the widest.
func newLanePairs() []lanePair {
	var ps []lanePair
	for _, g := range [][3]int{{8 * 1024, 64, 2}, {1024, 16, 4}, {1536, 24, 2}, {16 * 1024, 128, 8}} {
		ic, m := icache.New(g[0], g[1], g[2]), newICacheModel(g[0], g[1], g[2])
		ps = append(ps, lanePair{"icache/" + m.res.Name, ic, m,
			func() Result { return ic.Result() }, func() Result { return m.Result() }})
	}
	for _, g := range [][2]int{{256, 2}, {64, 1}} {
		b, m := btb.New(g[0], g[1]), newBTBModel(g[0], g[1])
		ps = append(ps, lanePair{"btb/" + m.res.Name, b, m,
			func() Result { return b.Result() }, func() Result { return &m.res }})
	}
	mix, mixM := analysis.NewBranchMix(), &mixModel{}
	bbl, bblM := analysis.NewBBL(), &bblModel{}
	bias, biasM := analysis.NewBias(), &biasModel{}
	fp, fpM := analysis.NewFootprint(), &footprintModel{}
	// All nine Figure-5 configurations, so the Sim under test shares bases
	// and the loop table while each model predictor stands alone.
	names := bpred.ConfigNames()
	sim, simM := bpredSim(names...), newBpredModel(names...)
	return append(ps,
		lanePair{"branch-mix", mix, mixM, func() Result { return mix.Result() }, func() Result { return &mixM.res }},
		lanePair{"bbl", bbl, bblM, func() Result { return bbl.Result() }, func() Result { return &bblM.res }},
		lanePair{"bias", bias, biasM, func() Result { return bias.Result() }, func() Result { return &biasM.res }},
		lanePair{"footprint", fp, fpM,
			func() Result { return fp.Result(0) },
			func() Result { return &analysis.FootprintResult{Chunks: fpM.chunks} }},
		lanePair{"bpred", sim, simM,
			func() Result { return bpredGroup(sim.Results()) },
			func() Result { return bpredGroup(simM.res) }},
	)
}

// laneDiff runs one pass of a stream over fresh pairs — every lane consumer
// behind one feed, every model beside it, instruction by instruction — and
// returns a description of the first disagreement, or "".
func laneDiff(pass func(obs ...trace.Observer) error) string {
	pairs := newLanePairs()
	lanes := make([]trace.LaneConsumer, len(pairs))
	obs := make([]trace.Observer, 1, 1+len(pairs))
	for i, p := range pairs {
		lanes[i] = p.lane
		obs = append(obs, p.model)
	}
	obs[0] = trace.NewFeed(lanes...)
	if err := pass(obs...); err != nil {
		return err.Error()
	}
	for _, p := range pairs {
		got, err := p.got().AppendJSON(nil)
		if err != nil {
			return err.Error()
		}
		want, err := p.want().AppendJSON(nil)
		if err != nil {
			return err.Error()
		}
		if !bytes.Equal(got, want) {
			return fmt.Sprintf("%s: lane consumer drifts from the per-instruction model:\n got: %s\nwant: %s", p.name, got, want)
		}
	}
	return ""
}

// deliverCut delivers a hand stream in batches of at most size, cut also at
// every phase change, as the executor and replay.Deliver cut theirs.
func deliverCut(stream []isa.Inst, size int, obs ...trace.Observer) {
	for len(stream) > 0 {
		n := 1
		for n < len(stream) && n < size && stream[n].Serial == stream[0].Serial {
			n++
		}
		for _, o := range obs {
			trace.AsBatch(o).ObserveBatch(stream[:n])
		}
		stream = stream[n:]
	}
}

type namedStream struct {
	name  string
	insts []isa.Inst
}

// laneHandStreams are the shapes the generators rarely or never produce. All
// addresses sit within 64 KiB of laneBase, so the fuzz encoding holds them.
func laneHandStreams() []namedStream {
	const b = laneBase
	other := func(pc isa.Addr, size uint8) isa.Inst {
		return isa.Inst{PC: pc, Size: size, Kind: isa.KindOther, Serial: true}
	}
	cond := func(pc isa.Addr, taken bool, target isa.Addr) isa.Inst {
		return isa.Inst{PC: pc, Size: 2, Kind: isa.KindCondDirect, Taken: taken, Target: target, Serial: true}
	}
	return []namedStream{
		// A discontinuity with no branch (region restart): first landing on
		// the line fetch is already in — no new access — then on a new one.
		{"discontinuity", []isa.Inst{
			other(b+0x10, 4), other(b+0x14, 4),
			other(b+0x04, 4), other(b+0x08, 4),
			other(b+0x200, 4), other(b+0x204, 3),
		}},
		{"not-taken mid-line", []isa.Inst{
			other(b+0x40, 4), cond(b+0x44, false, b+0x100), other(b+0x46, 4), other(b+0x4a, 6),
		}},
		// Taken to its own line: fetch was redirected, so the line is probed
		// again although it did not change.
		{"taken to own line", []isa.Inst{
			other(b+0x80, 4), cond(b+0x84, true, b+0x88), other(b+0x88, 4),
			cond(b+0x8c, true, b+0x80), other(b+0x80, 4),
		}},
		// 15 bytes from 0x3c: across the 64B line at 0x40, the 16B lines at
		// 0x40 (and for 24B lines 0x48), and a sector boundary in each.
		{"straddle", []isa.Inst{
			other(b+0x38, 4), other(b+0x3c, 15), other(b+0x4b, 15), other(b+0x5a, 1),
			cond(b+0x5b, true, b+0x7e), other(b+0x7e, 15),
		}},
		{"three lines", func() []isa.Inst {
			var s []isa.Inst
			for pc := isa.Addr(b + 0x3f0); pc < b+0x4d0; pc += 7 {
				s = append(s, other(pc, 7))
			}
			return append(s, isa.Inst{PC: b + 0x3f0 + 7*32, Size: 5, Kind: isa.KindCall, Taken: true, Target: b + 0x3f0, Serial: true})
		}()},
		{"every kind", []isa.Inst{
			other(b, 4), cond(b+4, true, b), other(b, 4), cond(b+4, false, b),
			{PC: b + 6, Size: 5, Kind: isa.KindCall, Taken: true, Target: b + 0x800},
			{PC: b + 0x800, Size: 3, Kind: isa.KindSyscall},
			{PC: b + 0x803, Size: 1, Kind: isa.KindReturn, Taken: true, Target: b + 0xb},
			{PC: b + 0xb, Size: 7, Kind: isa.KindUncondDirect, Taken: true, Target: b + 0x100},
			{PC: b + 0x100, Size: 2, Kind: isa.KindIndirectBranch, Taken: true, Target: b + 0x200},
			{PC: b + 0x200, Size: 6, Kind: isa.KindIndirectCall, Taken: true, Target: b + 0x800},
			{PC: b + 0x800, Size: 1, Kind: isa.KindOther, Taken: true, Target: b}, // a "taken" non-branch redirects nothing
			other(b+0x801, 2),
		}},
	}
}

// phaseEdges re-phases a prefix of a real stream so that phases flip on the
// batch edges 7, 14, 4096 and 8192, inside batches (15, 28), and after a
// section longer than any batch — the cuts replay's delivery tests use.
func phaseEdges(t *testing.T) []isa.Inst {
	t.Helper()
	var stream []isa.Inst
	grab := trace.ObserverFunc(func(in isa.Inst) { stream = append(stream, in) })
	if err := trace.Run(workload.MustBuild("xalan-lite"), 5, 30_000, grab); err != nil {
		t.Fatal(err)
	}
	i, serial := 0, true
	for _, n := range []int{7, 7, 1, 13, 4068, 4096, 9000} {
		for end := i + n; i < end; i++ {
			stream[i].Serial = serial
		}
		serial = !serial
	}
	return stream[:i]
}

// TestLaneMatchesPerInstruction is the differential property behind the
// lane: every lane consumer, fed fetch runs, reports byte-identically to its
// per-instruction model fed instructions — over both built-in workloads and
// the branchiest synth scenario, on both engines and at delivery batch sizes
// 1, 7 and 4096, and over hand streams cut at every batch size that matters,
// including ones that end a batch mid-run.
func TestLaneMatchesPerInstruction(t *testing.T) {
	const seed, insts = 11, 60_000
	for name, prog := range map[string]*program.Program{
		"comd-lite":  workload.MustBuild("comd-lite"),
		"xalan-lite": workload.MustBuild("xalan-lite"),
		"synth-len1": synth.MustBuild(synth.Params{Name: "lane-len1", BlockLen: 1}),
	} {
		rec := replay.NewRecorder()
		if d := laneDiff(func(obs ...trace.Observer) error {
			e := trace.NewExecutor(prog, seed)
			e.Attach(append(obs, rec)...)
			return e.Run(insts)
		}); d != "" {
			t.Errorf("%s: compiled engine: %s", name, d)
		}
		if d := laneDiff(func(obs ...trace.Observer) error {
			e := trace.NewExecutor(prog, seed)
			e.Attach(obs...)
			return e.RunReference(insts)
		}); d != "" {
			t.Errorf("%s: reference engine: %s", name, d)
		}
		for _, size := range []int{1, 7, trace.BatchSize} {
			if d := laneDiff(func(obs ...trace.Observer) error {
				return replay.Deliver(context.Background(), rec.Trace(), size, obs...)
			}); d != "" {
				t.Errorf("%s: delivery batch size %d: %s", name, size, d)
			}
		}
	}

	for _, hand := range append(laneHandStreams(), namedStream{"phase edges", phaseEdges(t)}) {
		name, stream := hand.name, hand.insts
		for _, size := range []int{1, 2, 3, 7, trace.BatchSize} {
			if d := laneDiff(func(obs ...trace.Observer) error {
				// Twice: the second pass starts on warm structures, mid-run
				// state carried over from the first.
				deliverCut(stream, size, obs...)
				deliverCut(stream, size, obs...)
				return nil
			}); d != "" {
				t.Errorf("hand stream %q, batch size %d: %s", name, size, d)
			}
		}
	}
}

// laneBase is where fuzzed streams live: a 64 KiB window, so lines, sets and
// branch sites collide.
const laneBase = isa.Addr(0x400000)

// encodeLaneStream renders a stream in the fuzz encoding, six bytes per
// instruction: flags (kind, taken, serial, and whether the PC is given or
// follows from the previous instruction), size, target and PC offsets.
func encodeLaneStream(stream []isa.Inst) []byte {
	var out []byte
	for i := range stream {
		in := &stream[i]
		flags := byte(in.Kind)
		if in.Taken {
			flags |= 1 << 3
		}
		if in.Serial {
			flags |= 1 << 4
		}
		if i == 0 || in.PC != stream[i-1].NextPC() {
			flags |= 1 << 5
		}
		out = append(out, flags, in.Size-1)
		out = binary.LittleEndian.AppendUint16(out, uint16(in.Target-laneBase))
		out = binary.LittleEndian.AppendUint16(out, uint16(in.PC-laneBase))
	}
	return out
}

// decodeLaneStream is encodeLaneStream's inverse, total over byte strings:
// any input is a stream the models accept (sizes 1..15, registered kinds).
func decodeLaneStream(data []byte) []isa.Inst {
	var stream []isa.Inst
	next := laneBase
	for ; len(data) >= 6; data = data[6:] {
		flags := data[0]
		in := isa.Inst{
			PC:     next,
			Size:   1 + data[1]%15,
			Kind:   isa.Kind(flags & 7),
			Taken:  flags&(1<<3) != 0,
			Serial: flags&(1<<4) != 0,
			Target: laneBase + isa.Addr(binary.LittleEndian.Uint16(data[2:])),
		}
		if flags&(1<<5) != 0 || len(stream) == 0 {
			in.PC = laneBase + isa.Addr(binary.LittleEndian.Uint16(data[4:]))
		}
		next = in.NextPC()
		stream = append(stream, in)
	}
	return stream
}

// FuzzLaneMatchesPerInstruction holds the lane consumers to their models on
// arbitrary streams and batch cuts.
func FuzzLaneMatchesPerInstruction(f *testing.F) {
	for _, hand := range laneHandStreams() {
		f.Add(encodeLaneStream(hand.insts), uint16(2))
		f.Add(encodeLaneStream(hand.insts), uint16(trace.BatchSize-1))
	}
	f.Fuzz(func(t *testing.T, data []byte, size uint16) {
		stream := decodeLaneStream(data)
		if d := laneDiff(func(obs ...trace.Observer) error {
			deliverCut(stream, 1+int(size), obs...)
			return nil
		}); d != "" {
			t.Fatal(d)
		}
	})
}

// lanesOnly stands between a stream source and a group's feed: lanes pass
// through, and an instruction — which the feed would have to scan, and the
// source would have had to expand — fails the test.
type lanesOnly struct {
	t    *testing.T
	feed *trace.Feed
}

func (o lanesOnly) Observe(isa.Inst)        { o.t.Error("the source delivered an instruction") }
func (o lanesOnly) ObserveBatch([]isa.Inst) { o.t.Error("the source delivered an instruction batch") }
func (o lanesOnly) ConsumeLane(l *isa.Lane) { o.feed.ConsumeLane(l) }

// TestGroupScansOncePerBatch, restated now that sources produce lanes: the
// nine members of a mixed9 coordinate and footprint stream to one feed, and
// a production pass — storeless, through a cold store (record, then deliver)
// and through a warm one — hands that feed lanes only, so nothing is scanned
// or expanded; every member still reports what it reports alone.
func TestGroupScansOncePerBatch(t *testing.T) {
	cfgs, err := expandObservers(append(benchSweepSpec(1).Observers, ObserverSpec{Kind: "footprint"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 10 {
		t.Fatalf("mixed9 and footprint expand to %d configurations", len(cfgs))
	}
	ctx := context.Background()
	spec := ShardSpec{Workload: "comd-lite", Seed: 4, Insts: 30_000}
	alone := NewSession(1)
	c, err := alone.Compiled(spec.Workload)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(cfgs))
	for k, cfg := range cfgs {
		sh, err := alone.runJob(ctx, c, cellOf(spec.Workload, cfg, spec.Seed, spec.Insts))
		if err != nil {
			t.Fatal(err)
		}
		if want[k], err = sh.Result.AppendJSON(nil); err != nil {
			t.Fatal(err)
		}
	}
	replaying, traces := newReplaySession(t, 1, replay.Options{})
	for _, pass := range []struct {
		name string
		sess *Session
	}{{"storeless", alone}, {"store-cold", replaying}, {"store-warm", replaying}} {
		u := newUnitState(cfgs, nil, c.Program())
		feed, finish := u.feed, u.finish
		if len(finish) != len(cfgs) {
			t.Fatalf("%d results for %d members", len(finish), len(cfgs))
		}
		insts, _, err := pass.sess.stream(ctx, &u.exec, c, &spec, lanesOnly{t, feed})
		if err != nil || insts < spec.Insts {
			t.Fatalf("%s: streamed %d instructions, err %v", pass.name, insts, err)
		}
		for k, cfg := range cfgs {
			res, err := finish[k]()
			if err != nil {
				t.Fatal(err)
			}
			if got, err := res.AppendJSON(nil); err != nil || !bytes.Equal(got, want[k]) {
				t.Errorf("%s: %s fed lanes in the group reports %s (err %v), alone %s", pass.name, cfg.Key(), got, err, want[k])
			}
		}
	}
	if st := traces.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("the two store passes made %d misses and %d hits, want the cold one and the warm one", st.Misses, st.Hits)
	}
}

// TestICacheLineWidthBounds: a line narrower than the longest instruction
// could be spanned three at a time, which the fetch model never described,
// so the factory refuses it and says why.
func TestICacheLineWidthBounds(t *testing.T) {
	for _, lineBytes := range []int{8, 16, 32, 64, 128} {
		opts := json.RawMessage(fmt.Sprintf(`{"geometries":[{"size_kb":8,"line_bytes":%d,"ways":2}]}`, lineBytes))
		cfgs, err := icacheFactory(opts)
		if lineBytes >= 16 {
			if err != nil || len(cfgs) != 1 {
				t.Errorf("line_bytes %d: %d configs, err %v; want accepted", lineBytes, len(cfgs), err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "15 bytes") {
			t.Errorf("line_bytes %d: err = %v, want a refusal naming the 15-byte instruction bound", lineBytes, err)
		}
	}
}
