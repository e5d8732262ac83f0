package bpred

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"rebalance/internal/isa"
	"rebalance/internal/trace"
	"rebalance/internal/wire"
	"rebalance/internal/workload"
)

// recordStream returns the first n instructions of a built-in workload.
func recordStream(t *testing.T, name string, n int64) []isa.Inst {
	t.Helper()
	var stream []isa.Inst
	grab := trace.ObserverFunc(func(in isa.Inst) { stream = append(stream, in) })
	if err := trace.Run(workload.MustBuild(name), 3, n, grab); err != nil {
		t.Fatal(err)
	}
	return stream
}

// deliver feeds the stream to the simulator in batches of at most size, cut
// also at every phase change, as the executor and replay cut theirs.
func deliver(s *Sim, stream []isa.Inst, size int) {
	feed := trace.NewFeed(s)
	for len(stream) > 0 {
		n := 1
		for n < len(stream) && n < size && stream[n].Serial == stream[0].Serial {
			n++
		}
		feed.ObserveBatch(stream[:n])
		stream = stream[n:]
	}
}

// loneResults is the executable specification Sim is held to: every
// configuration a lone instance, driven branch by branch through
// Predictor.Access (for an "L-" configuration, WithLoop.Access).
func loneResults(stream []isa.Inst, preds ...Predictor) []Result {
	res := make([]Result, len(preds))
	for i, p := range preds {
		r := &res[i]
		r.Name, r.CostBits = p.Name(), p.CostBits()
		for j := range stream {
			in := &stream[j]
			ph := 1
			if in.Serial {
				ph = 0
			}
			r.Insts[ph]++
			if in.Kind.IsConditional() {
				r.Branches[ph]++
				if p.Access(in.PC, in.Taken) != in.Taken {
					r.Miss[ph][in.BranchDirection()]++
				}
			}
		}
	}
	return res
}

func byName(t *testing.T, names ...string) []Predictor {
	t.Helper()
	preds := make([]Predictor, len(names))
	for i, name := range names {
		p, err := NewByName(name)
		if err != nil {
			t.Fatal(err)
		}
		preds[i] = p
	}
	return preds
}

// TestConfigTable pins the configuration table: every entry builds a
// predictor of its own name, no name repeats, ConfigNames lists
// StandardConfigs' order, HasConfig allocates nothing, and an unknown name
// is refused with the listing.
func TestConfigTable(t *testing.T) {
	names := ConfigNames()
	for i, p := range StandardConfigs() {
		if p.Name() != names[i] {
			t.Errorf("ConfigNames()[%d] = %q, StandardConfigs()[%d] is %q", i, names[i], i, p.Name())
		}
	}
	seen := map[string]bool{}
	for _, c := range standardConfigs {
		if got := c.new().Name(); got != c.name {
			t.Errorf("entry %q builds a predictor named %q", c.name, got)
		}
		if seen[c.name] {
			t.Errorf("entry %q listed twice", c.name)
		}
		seen[c.name] = true
	}
	if n := testing.AllocsPerRun(10, func() { HasConfig("L-tage-small") }); n != 0 {
		t.Errorf("HasConfig allocates %v times", n)
	}
	_, err := NewByName("no-such")
	if want := `bpred: unknown predictor config "no-such" (have ` + fmt.Sprint(names) + ")"; err == nil || err.Error() != want {
		t.Errorf("NewByName(no-such) = %v, want %s", err, want)
	}
}

// TestSimMatchesLonePredictors: whatever a Sim's configurations share — all
// of Figure 5, an overlay with no plain base beside it, two overlays, a base
// before and after its overlay, one name twice — every configuration's
// counters equal a lone instance's, however the stream is cut.
func TestSimMatchesLonePredictors(t *testing.T) {
	subsets := [][]string{
		ConfigNames(),
		{"L-gshare-small"},
		{"L-gshare-small", "L-tage-small"},
		{"tage-small", "L-tage-small"},
		{"L-tournament-small", "tournament-small"},
		{"gshare-small", "gshare-small", "L-gshare-small", "L-gshare-small"},
		{"gshare-big", "tournament-big", "tage-big"},
	}
	for _, wl := range []string{"comd-lite", "xalan-lite"} {
		stream := recordStream(t, wl, 40_000)
		for _, names := range subsets {
			want := loneResults(stream, byName(t, names...)...)
			for _, size := range []int{1, 7, trace.BatchSize} {
				s := NewSim(byName(t, names...)...)
				deliver(s, stream, size)
				if got := s.Results(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s %v, batch size %d:\n got %+v\nwant %+v", wl, names, size, got, want)
				}
			}
		}
	}
}

// counted counts the accesses that reach a built-in predictor without hiding
// its geometry from Sim.
type counted struct {
	Predictor
	n *int
}

func (c counted) Access(pc isa.Addr, taken bool) bool {
	*c.n++
	return c.Predictor.Access(pc, taken)
}

func (c counted) geometry() string {
	return c.Predictor.(interface{ geometry() string }).geometry()
}

// TestSimWalksEachComponentOnce: over the nine Figure-5 configurations a
// batch costs six base walks and one loop walk — each plain configuration's
// instance sees every conditional branch exactly once, and the overlays' own
// bases and all loop tables but the first are never touched.
func TestSimWalksEachComponentOnce(t *testing.T) {
	var n [9]int
	var preds []Predictor
	var overlays []*WithLoop
	for i, p := range StandardConfigs() {
		if w, ok := p.(*WithLoop); ok {
			w.base = counted{w.base, &n[i]}
			overlays = append(overlays, w)
		} else {
			p = counted{p, &n[i]}
		}
		preds = append(preds, p)
	}
	s := NewSim(preds...)
	if len(s.comps) != 7 || s.comps[6].loop != overlays[0].loop {
		t.Fatalf("nine configurations resolve to %d components, want six bases and the first loop table", len(s.comps))
	}
	stream := recordStream(t, "xalan-lite", 20_000)
	deliver(s, stream, 512)
	branches := s.Results()[0].Branches
	conds := int(branches[0] + branches[1])
	if conds == 0 {
		t.Fatal("stream has no conditional branches")
	}
	if want := [9]int{conds, conds, conds, conds, conds, conds}; n != want {
		t.Errorf("accesses per configuration's base = %v, want %v", n, want)
	}
	powerOn := NewLoopPredictor()
	if reflect.DeepEqual(overlays[0].loop, powerOn) {
		t.Error("the shared loop table was never trained")
	}
	for _, w := range overlays[1:] {
		if !reflect.DeepEqual(w.loop, powerOn) {
			t.Errorf("%s: its own loop table was walked beside the shared one", w.Name())
		}
	}
}

// alwaysTaken is a Predictor Sim knows nothing about.
type alwaysTaken struct{}

func (alwaysTaken) Access(isa.Addr, bool) bool { return true }
func (alwaysTaken) Name() string               { return "same" }
func (alwaysTaken) CostBits() int              { return 0 }

// TestSimIdentityIsGeometryNotName: predictors that share a name but not a
// geometry — or whose type Sim does not know — are walked separately; ones
// that share a geometry under different names are one component. Either way
// each configuration reports what its lone instance would.
func TestSimIdentityIsGeometryNotName(t *testing.T) {
	build := func() []Predictor {
		return []Predictor{
			NewGshare("same", 6), NewGshare("same", 13), NewTournament("same", 10, 8),
			NewWithLoop(NewGshare("same", 6)), alwaysTaken{}, alwaysTaken{},
			NewGshare("other", 13), NewBimodal("same", 10),
		}
	}
	s := NewSim(build()...)
	// gshare/6 (also the overlay's base), gshare/13 (also "other"),
	// tournament, two alwaysTaken, bimodal, and the loop table.
	if len(s.comps) != 7 {
		t.Errorf("resolved to %d components, want 7", len(s.comps))
	}
	stream := recordStream(t, "comd-lite", 30_000)
	deliver(s, stream, 100)
	want := loneResults(stream, build()...)
	if got := s.Results(); !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v\nwant %+v", got, want)
	}
	if want[0] == want[1] {
		t.Error("the two gshares under one name are indistinguishable on this stream: the test shows nothing")
	}
}

// refAppendConds is the filter loop appendConds replaced, kept verbatim.
func refAppendConds(recs []condRec, l *isa.Lane) []condRec {
	for i := range l.Runs {
		if r := &l.Runs[i]; r.Kind.IsConditional() {
			recs = append(recs, condRec{pc: r.PC, taken: uint8(b2u(r.Taken)), dir: uint8(r.BranchDirection())})
		}
	}
	return recs
}

// TestAppendCondsMatchesFilter: on lanes of every kind, outcome and target —
// below, at and above the branch, a target on a not-taken run included — and
// on empty lanes, appendConds appends what the filter loop did, after
// records already in recs, whether or not recs has room for every run.
func TestAppendCondsMatchesFilter(t *testing.T) {
	var every []isa.Run
	for k := isa.Kind(0); int(k) < isa.NumKinds; k++ {
		for _, taken := range []bool{false, true} {
			for _, off := range []int64{-64, 0, 64} {
				pc := isa.Addr(0x400000 + 4*len(every))
				every = append(every, isa.Run{Start: pc - 8, PC: pc, Target: isa.Addr(int64(pc) + off), Kind: k, Taken: taken})
			}
		}
	}
	lanes := []isa.Lane{{}, {Runs: every}, {Runs: every[:1]}, {Runs: every[3:9]}, {Runs: every[len(every)-5:]}}
	prefix := []condRec{{pc: 0x1000, taken: 1, dir: uint8(isa.DirTakenForward)}, {pc: 0x2000}}
	for li := range lanes {
		l := &lanes[li]
		for _, pre := range [][]condRec{nil, prefix[:1], prefix} {
			for _, room := range []int{0, 1, len(l.Runs)} {
				recs := append(make([]condRec, 0, len(pre)+room), pre...)
				want := refAppendConds(append([]condRec(nil), pre...), l)
				if got := appendConds(recs, l); !slices.Equal(got, want) {
					t.Errorf("lane %d, %d records before, room for %d more:\n got %v\nwant %v", li, len(pre), room, got, want)
				}
			}
		}
	}
}

// lanesOf keeps every lane it is handed, its runs copied out of the source's
// reused buffer.
type lanesOf []isa.Lane

func (c *lanesOf) ConsumeLane(l *isa.Lane) {
	*c = append(*c, isa.Lane{Runs: slices.Clone(l.Runs), Insts: l.Insts, Phase: l.Phase})
}

// BenchmarkComponentWalk prices each Figure-5 component alone — both sizes
// of gshare, tournament and TAGE, and the loop table — as Sim walks it, round
// by round, over the conditional branches of the first 2M instructions of
// each built-in workload. An op walks a fresh instance over the whole
// stream; ns/branch is the figure to read. The tage-big and tage-small rows
// run the stage NewTAGE selects; the rows suffixed /go and /avx2 force each
// stage this host offers. The appendConds row prices the compaction that
// builds those rounds from the same lanes, in ns/run.
func BenchmarkComponentWalk(b *testing.B) {
	type row struct {
		name string
		new  func() component
	}
	components := []row{
		{"gshare-big", func() component { return component{base: NewGshareBig()} }},
		{"gshare-small", func() component { return component{base: NewGshareSmall()} }},
		{"tournament-big", func() component { return component{base: NewTournamentBig()} }},
		{"tournament-small", func() component { return component{base: NewTournamentSmall()} }},
		{"tage-big", func() component { return component{base: NewTAGEBig()} }},
		{"tage-small", func() component { return component{base: NewTAGESmall()} }},
		{"loop", func() component { return component{loop: NewLoopPredictor()} }},
	}
	for _, tage := range []struct {
		build  func() *TAGE
		stages []bool
	}{{NewTAGEBig, tageStages(b)}, {NewTAGESmall, []bool{false}}} {
		t := tage.build()
		baseLog, specs := tageSpecs(b, t)
		for _, avx2 := range tage.stages {
			components = append(components, row{t.name + "/" + stageName(avx2), func() component {
				return component{base: newTAGE(t.name, baseLog, specs, avx2)}
			}})
		}
	}
	for _, wl := range []string{"comd-lite", "xalan-lite"} {
		var lanes lanesOf
		e := trace.NewExecutor(workload.MustBuild(wl), 1)
		e.Attach(trace.NewFeed(&lanes))
		if err := e.Run(2_000_000); err != nil {
			b.Fatal(err)
		}
		var rounds [][]condRec
		branches, runs := 0, 0
		for i := range lanes {
			if recs := appendConds(nil, &lanes[i]); len(recs) > 0 {
				rounds = append(rounds, recs)
				branches += len(recs)
			}
			runs += len(lanes[i].Runs)
		}
		b.Run(wl+"/appendConds", func(b *testing.B) {
			var recs []condRec
			for i := 0; i < b.N; i++ {
				for j := range lanes {
					recs = appendConds(recs[:0], &lanes[j])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*runs), "ns/run")
		})
		for _, c := range components {
			b.Run(wl+"/"+c.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					comp := c.new()
					b.StartTimer()
					for _, recs := range rounds {
						comp.walk(recs)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*branches), "ns/branch")
			})
		}
	}
}

// TestScanResultRefusesCostPastInt: a result's cost_bits round-trips, and
// one past the host's int is refused, not wrapped — on a 32-bit host, a
// value that fits 64 bits.
func TestScanResultRefusesCostPastInt(t *testing.T) {
	r := &Result{Name: "gshare-small", CostBits: math.MaxInt}
	enc, err := r.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := wire.Decode(enc, ScanResult); err != nil || got.CostBits != math.MaxInt {
		t.Fatalf("cost_bits %d round-trips as %v (err %v)", r.CostBits, got, err)
	}
	past := strconv.FormatUint(uint64(math.MaxInt)+1, 10)
	enc = bytes.Replace(enc, []byte(strconv.Itoa(math.MaxInt)), []byte(past), 1)
	if got, err := wire.Decode(enc, ScanResult); err == nil {
		t.Errorf("cost_bits %s decoded as %d", past, got.CostBits)
	}
}
