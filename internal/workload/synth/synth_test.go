package synth

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"rebalance/internal/isa"
	"rebalance/internal/trace"
)

func TestCanonicalDefaults(t *testing.T) {
	c, err := Params{Name: "only-name"}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	want := Params{
		Name:           "only-name",
		BiasedFrac:     defaultBiasedFrac,
		CorrelatedFrac: defaultCorrelatedFrac,
		NoisyFrac:      defaultNoisyFrac,
		Bias:           defaultBias,
		BlockLen:       defaultBlockLen,
		LoopDepth:      defaultLoopDepth,
		TripCounts:     defaultTripCounts(),
		Funcs:          defaultFuncs,
		CallFanout:     defaultCallFanout,
		IndirectFanout: defaultIndirectFanout,
		Dispatch:       DispatchPeriodic,
		HotFrac:        defaultHotFrac,
	}
	if !reflect.DeepEqual(c, want) {
		t.Errorf("canonical defaults:\n got %+v\nwant %+v", c, want)
	}
	// Canonicalization is idempotent: the canonical form of a canonical
	// form is itself, byte for byte.
	again, err := c.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.CanonicalJSON()
	b, _ := again.CanonicalJSON()
	if string(a) != string(b) {
		t.Errorf("canonicalization not idempotent:\n first %s\nsecond %s", a, b)
	}
}

func TestCanonicalClampsFanoutToHotSet(t *testing.T) {
	c, err := Params{Name: "clamp", Funcs: 4, HotFrac: 0.5, IndirectFanout: 8}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.IndirectFanout != 2 {
		t.Errorf("fanout = %d, want clamped to the hot-function count 2", c.IndirectFanout)
	}
}

func TestParamValidation(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		want string
	}{
		{"empty name", Params{}, "name"},
		{"bad name chars", Params{Name: "Synth One"}, "name"},
		{"leading dash", Params{Name: "-x"}, "name"},
		{"long name", Params{Name: strings.Repeat("a", 65)}, "name"},
		{"mixture sum", Params{Name: "x", BiasedFrac: 0.5, CorrelatedFrac: 0.5, NoisyFrac: 0.5}, "sum"},
		{"negative frac", Params{Name: "x", BiasedFrac: -0.1, CorrelatedFrac: 1.0, NoisyFrac: 0.1}, "outside [0, 1]"},
		{"weak bias", Params{Name: "x", Bias: 0.6}, "bias"},
		{"block len", Params{Name: "x", BlockLen: 100}, "block_len"},
		{"loop depth", Params{Name: "x", LoopDepth: 9}, "loop_depth"},
		{"trip phase count", Params{Name: "x", TripCounts: []int{16, 16, 16, 16, 16, 16, 16, 16, 16}}, "phases"},
		{"trip range", Params{Name: "x", TripCounts: []int{16, 2000}}, "trip count"},
		{"trip mean floor", Params{Name: "x", TripCounts: []int{3, 4}}, "mean"},
		{"funcs", Params{Name: "x", Funcs: 100}, "funcs"},
		{"call fanout", Params{Name: "x", CallFanout: 20}, "call_fanout"},
		{"indirect fanout", Params{Name: "x", IndirectFanout: 40}, "indirect_fanout"},
		{"dispatch", Params{Name: "x", Dispatch: "psychic"}, "dispatch"},
		{"hot frac", Params{Name: "x", HotFrac: 1.5}, "hot_frac"},
		{"no hot funcs", Params{Name: "x", Funcs: 64, HotFrac: 0.001}, "hot"},
		// The structural floors: the loops' own back-edges already
		// contribute biased and mid mass the mixture cannot go below.
		{"biased floor", Params{Name: "x", BiasedFrac: 0.02, CorrelatedFrac: 0.49, NoisyFrac: 0.49}, "structural floor"},
		{"noisy floor", Params{Name: "x", BiasedFrac: 0.6, CorrelatedFrac: 0.3999, NoisyFrac: 0.0001}, "structural floor"},
	}
	// Non-finite knobs: NaN fails every comparison, so each range check must
	// reject it too.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases = append(cases, []struct {
			name string
			p    Params
			want string
		}{
			{fmt.Sprint("biased_frac ", v), Params{Name: "x", BiasedFrac: v, CorrelatedFrac: 0.2, NoisyFrac: 0.1}, "biased_frac"},
			{fmt.Sprint("correlated_frac ", v), Params{Name: "x", BiasedFrac: 0.7, CorrelatedFrac: v, NoisyFrac: 0.1}, "correlated_frac"},
			{fmt.Sprint("noisy_frac ", v), Params{Name: "x", BiasedFrac: 0.7, CorrelatedFrac: 0.2, NoisyFrac: v}, "noisy_frac"},
			{fmt.Sprint("bias ", v), Params{Name: "x", Bias: v}, "bias"},
			{fmt.Sprint("hot_frac ", v), Params{Name: "x", HotFrac: v}, "hot_frac"},
		}...)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.p.Canonical()
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !errors.Is(err, ErrParams) {
				t.Errorf("error %v does not wrap ErrParams", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("want error containing %q, got %v", tc.want, err)
			}
			if _, err := Build(tc.p); !errors.Is(err, ErrParams) {
				t.Errorf("Build error %v does not wrap ErrParams", err)
			}
		})
	}
}

// TestEqualScenariosByteIdentical is the canonicalization contract: a
// scenario spelled with defaults omitted and the same scenario spelled
// explicitly build structurally identical programs emitting bit-identical
// streams.
func TestEqualScenariosByteIdentical(t *testing.T) {
	short := Params{Name: "eq"}
	explicit := Defaults()
	explicit.Name = "eq"

	a, b := MustBuild(short), MustBuild(explicit)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal scenarios built different programs")
	}
	// And a rebuilt copy of the same params is identical too (the
	// generator holds no hidden state).
	if c := MustBuild(short); !reflect.DeepEqual(a, c) {
		t.Fatal("rebuilding the same scenario changed the program")
	}

	stream := func(p Params) []isa.Inst {
		var out []isa.Inst
		if err := trace.Run(MustBuild(p), 7, 50_000, trace.ObserverFunc(func(in isa.Inst) {
			out = append(out, in)
		})); err != nil {
			t.Fatal(err)
		}
		return out
	}
	sa, sb := stream(short), stream(explicit)
	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("equal scenarios emitted different streams")
	}
}

// TestKnobsChangeProgram: every knob that survives canonicalization must
// change the generated program — otherwise two distinct scenarios would
// share a content address upstream.
func TestKnobsChangeProgram(t *testing.T) {
	base := MustBuild(Params{Name: "x"})
	for name, p := range map[string]Params{
		"seed":     {Name: "x", Seed: 1},
		"mixture":  {Name: "x", BiasedFrac: 0.8, CorrelatedFrac: 0.15, NoisyFrac: 0.05},
		"bias":     {Name: "x", Bias: 0.99},
		"blocklen": {Name: "x", BlockLen: 4},
		"depth":    {Name: "x", LoopDepth: 3},
		"trips":    {Name: "x", TripCounts: []int{12, 20}},
		"funcs":    {Name: "x", Funcs: 6},
		"calls":    {Name: "x", CallFanout: 3},
		"fanout":   {Name: "x", IndirectFanout: 2},
		"dispatch": {Name: "x", Dispatch: DispatchWeighted},
		"hot":      {Name: "x", HotFrac: 0.5},
	} {
		if reflect.DeepEqual(base, MustBuild(p)) {
			t.Errorf("changing %s did not change the program", name)
		}
	}
}

func TestAssignKindsErrorDiffusion(t *testing.T) {
	m := mixture{biased: 0.5, correlated: 0.3, noisy: 0.2}
	kinds := assignKinds(m, 100)
	var counts [3]int
	for _, k := range kinds {
		counts[k]++
	}
	if counts[0] != 50 || counts[1] != 30 || counts[2] != 20 {
		t.Errorf("counts = %v, want [50 30 20]", counts)
	}
	// Every prefix stays within one site of the exact share.
	var running [3]int
	for i, k := range kinds {
		running[k]++
		for j, target := range []float64{m.biased, m.correlated, m.noisy} {
			got := float64(running[j])
			want := target * float64(i+1)
			if got < want-1 || got > want+1 {
				t.Fatalf("prefix %d: population %d at %v, exact share %v", i+1, j, got, want)
			}
		}
	}
}
