package chaos_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"rebalance/internal/clock"
	"rebalance/internal/sim"
	"rebalance/internal/sim/dispatch/chaos"
)

// okBackend answers every shard and probe; chaos wrappers supply the
// failures.
type okBackend struct {
	name   string
	probes atomic.Int64
}

func (b *okBackend) Name() string { return b.name }

func (b *okBackend) Probe(context.Context) error { b.probes.Add(1); return nil }

func (b *okBackend) RunShards(_ context.Context, specs []sim.ShardSpec) ([]sim.Outcome, error) {
	out := make([]sim.Outcome, len(specs))
	for i, spec := range specs {
		out[i].Shard = sim.Shard{Workload: spec.Workload, Seed: spec.Seed, Observer: spec.Observer.Kind, Insts: spec.Insts}
	}
	return out, nil
}

func TestScheduleValidate(t *testing.T) {
	cases := []struct {
		name string
		s    chaos.Schedule
		want string // substring of the error; empty = valid
	}{
		{"zero", chaos.Schedule{}, ""},
		{"full", chaos.Schedule{Seed: 1, PLatency: 0.5, LatencyMinMS: 1, LatencyMaxMS: 10,
			PHang: 0.1, P5xx: 0.1, PDrop: 0.1, PCorrupt: 0.1, PTruncate: 0.1, FlapPeriod: 4,
			Poison: []chaos.PoisonKey{{Workload: "w", Seed: 1}}}, ""},
		{"probability above 1", chaos.Schedule{PDrop: 1.5}, "outside [0, 1]"},
		{"negative probability", chaos.Schedule{PHang: -0.1}, "outside [0, 1]"},
		{"latency min above max", chaos.Schedule{PLatency: 0.1, LatencyMinMS: 10, LatencyMaxMS: 5}, "latency_min_ms"},
		{"latency with no bound", chaos.Schedule{PLatency: 0.1}, "no latency_max_ms"},
		{"negative flap", chaos.Schedule{FlapPeriod: -1}, "flap_period"},
		{"anonymous poison", chaos.Schedule{Poison: []chaos.PoisonKey{{Seed: 3}}}, "no workload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.s.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestDecodeScheduleStrict(t *testing.T) {
	s, err := chaos.DecodeSchedule([]byte(`{"seed": 9, "p_drop": 0.25, "flap_period": 8,
		"poison": [{"workload": "comd-lite", "seed": 1, "observer": "bbl"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 9 || s.PDrop != 0.25 || s.FlapPeriod != 8 || len(s.Poison) != 1 {
		t.Fatalf("decoded schedule = %+v", s)
	}
	if _, err := chaos.DecodeSchedule([]byte(`{"seed": 1, "p_dorp": 0.5}`)); err == nil {
		t.Fatal("misspelled fault field decoded without error; schedules must be strict")
	}
	if _, err := chaos.DecodeSchedule([]byte(`{"p_drop": 2}`)); err == nil {
		t.Fatal("invalid probability decoded without error")
	}
}

// TestFaultPlanDeterministic drives two injectors built from the same
// schedule through identical sequential call sequences and requires the
// same faults, call index by call index — the property every soak's
// reproducibility rests on.
func TestFaultPlanDeterministic(t *testing.T) {
	sched := chaos.Schedule{Seed: 42, PDrop: 0.2, P5xx: 0.2, PCorrupt: 0.15, PTruncate: 0.15, FlapPeriod: 7}
	spec := sim.ShardSpec{Workload: "w", Seed: 1, Insts: 1, Observer: sim.ObserverSpec{Kind: "bbl"}}
	run := func() []string {
		inj, err := chaos.New(sched, clock.NewVirtual())
		if err != nil {
			t.Fatal(err)
		}
		b := chaos.Wrap(&okBackend{name: "x"}, inj)
		var outs []string
		for i := 0; i < 300; i++ {
			_, err := sim.RunOne(context.Background(), b, spec)
			if err == nil {
				outs = append(outs, "ok")
			} else {
				outs = append(outs, err.Error())
			}
		}
		return outs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d diverged: %q vs %q", i, a[i], b[i])
		}
	}
	// The plan must actually contain faults, or the soak proves nothing.
	var faults int
	for _, o := range a {
		if o != "ok" {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("300 calls produced no faults under a faulting schedule")
	}
}

func TestPoisonMatching(t *testing.T) {
	inj, err := chaos.New(chaos.Schedule{Poison: []chaos.PoisonKey{
		{Workload: "a", Seed: 1},
		{Workload: "b", Seed: 2, Observer: "bbl"},
	}}, clock.NewVirtual())
	if err != nil {
		t.Fatal(err)
	}
	b := chaos.Wrap(&okBackend{name: "x"}, inj)
	cases := []struct {
		spec     sim.ShardSpec
		poisoned bool
	}{
		{sim.ShardSpec{Workload: "a", Seed: 1, Observer: sim.ObserverSpec{Kind: "bbl"}}, true},
		{sim.ShardSpec{Workload: "a", Seed: 1, Observer: sim.ObserverSpec{Kind: "bias"}}, true}, // any observer
		{sim.ShardSpec{Workload: "a", Seed: 2, Observer: sim.ObserverSpec{Kind: "bbl"}}, false},
		{sim.ShardSpec{Workload: "b", Seed: 2, Observer: sim.ObserverSpec{Kind: "bbl"}}, true},
		{sim.ShardSpec{Workload: "b", Seed: 2, Observer: sim.ObserverSpec{Kind: "bias"}}, false}, // narrowed
	}
	for _, tc := range cases {
		_, err := sim.RunOne(context.Background(), b, tc.spec)
		got := err != nil && strings.Contains(err.Error(), "poisoned")
		if got != tc.poisoned {
			t.Errorf("shard {%s %s seed %d}: poisoned = %v, want %v (err %v)",
				tc.spec.Workload, tc.spec.Observer.Kind, tc.spec.Seed, got, tc.poisoned, err)
		}
	}
}

func TestCorruptBytes(t *testing.T) {
	orig := []byte("the quick brown fox")
	a := append([]byte(nil), orig...)
	chaos.CorruptBytes(a, 12345)
	if bytes.Equal(a, orig) {
		t.Fatal("CorruptBytes left the data unchanged")
	}
	diff := 0
	for i := range a {
		if a[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("CorruptBytes changed %d bytes, want exactly 1", diff)
	}
	b := append([]byte(nil), orig...)
	chaos.CorruptBytes(b, 12345)
	if !bytes.Equal(a, b) {
		t.Fatal("CorruptBytes is not deterministic for equal mut")
	}
	chaos.CorruptBytes(nil, 1) // must not panic
}

func TestCorruptDirDeterministic(t *testing.T) {
	mkdir := func() string {
		dir := t.TempDir()
		for i, content := range []string{"first entry payload", "second entry payload", ""} {
			name := filepath.Join(dir, "sc2-entry-"+string(rune('a'+i)))
			if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	d1, d2 := mkdir(), mkdir()
	n1, err := chaos.CorruptDir(d1, 77)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := chaos.CorruptDir(d2, 77)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != 2 || n2 != 2 {
		t.Fatalf("corrupted (%d, %d) files, want 2 each (the empty file is skipped)", n1, n2)
	}
	for _, name := range []string{"sc2-entry-a", "sc2-entry-b"} {
		a, err := os.ReadFile(filepath.Join(d1, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(d2, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s corrupted differently across identical seeds", name)
		}
	}
}

// TestWrapForwardsProber checks that a wrapped backend's probes reach
// the inner backend, and fail — without reaching it or consuming a call
// index — during flap windows.
func TestWrapForwardsProber(t *testing.T) {
	inj, err := chaos.New(chaos.Schedule{FlapPeriod: 2}, clock.NewVirtual()) // calls 0-1 up, 2-3 down
	if err != nil {
		t.Fatal(err)
	}
	inner := &okBackend{name: "x"}
	b := chaos.Wrap(inner, inj)
	ctx := context.Background()
	if err := b.Probe(ctx); err != nil || inner.probes.Load() != 1 {
		t.Fatalf("Probe in an up window = %v after %d inner probes, want it forwarded", err, inner.probes.Load())
	}
	spec := sim.ShardSpec{Workload: "w", Seed: 1, Insts: 1, Observer: sim.ObserverSpec{Kind: "bbl"}}
	for i := 0; i < 2; i++ {
		if _, err := sim.RunOne(ctx, b, spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Probe(ctx); err == nil || inner.probes.Load() != 1 {
		t.Fatalf("Probe in a down window = %v after %d inner probes, want a flap failure", err, inner.probes.Load())
	}
	if got := inj.Calls(); got != 2 {
		t.Errorf("injector drew %d call indices, want 2: probes must not advance the fault plan", got)
	}
}
