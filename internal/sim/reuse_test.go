package sim

import (
	"context"
	"encoding/json"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// countdownCtx is a context cancelled by its own polling: Err reports
// context.Canceled from the polls-th call on, so a pass ends mid-stream at
// the same point every run.
type countdownCtx struct {
	context.Context
	polls atomic.Int64
}

func (c *countdownCtx) Done() <-chan struct{} { return make(chan struct{}) }

func (c *countdownCtx) Err() error {
	if c.polls.Add(-1) <= 0 {
		return context.Canceled
	}
	return nil
}

// reuseUnit is one unit of TestReusedUnitMatchesFresh: a coordinate and a
// member set.
type reuseUnit struct {
	workload string
	seed     uint64
	insts    int64
	members  []ObserverConfig
	cancel   bool // cancelled mid-stream
}

// runUnit runs u as one group on s and returns its outcomes with the
// timing fields cleared.
func runUnit(t *testing.T, s *Session, u reuseUnit) []Outcome {
	t.Helper()
	c, err := s.Compiled(u.workload)
	if err != nil {
		t.Error(err)
		return nil
	}
	cells := make([]gridCell, len(u.members))
	group := make([]int, len(u.members))
	for i, cfg := range u.members {
		cells[i], group[i] = cellOf(u.workload, cfg, u.seed, u.insts), i
	}
	var ctx context.Context = context.Background()
	if u.cancel {
		cc := &countdownCtx{Context: ctx}
		cc.polls.Store(3)
		ctx = cc
	}
	out := make([]Outcome, len(cells))
	s.runGroup(ctx, c, cells, group, out)
	for i := range out {
		out[i].Shard.ElapsedNS = 0
	}
	return out
}

// encodeOutcomes is the outcomes' shard records, or their errors.
func encodeOutcomes(t *testing.T, out []Outcome) []string {
	t.Helper()
	recs := make([]string, len(out))
	for i, o := range out {
		if o.Err != nil {
			recs[i] = "error: " + o.Err.Error()
			continue
		}
		rec, err := EncodeShard(o.Shard)
		if err != nil {
			t.Error(err)
		}
		recs[i] = string(rec)
	}
	return recs
}

// TestReusedUnitMatchesFresh: units run in sequence on one session, each on
// the state a previous unit of the same members left (reset, not rebuilt),
// report exactly what the same unit reports on a fresh session — across
// workloads, seeds, budgets (one instruction too) and member sets, and
// after a unit cancelled mid-stream — and no result handed out changes
// when later units run. Two goroutines then run units concurrently on one
// session, each matching its fresh run, for the race detector.
func TestReusedUnitMatchesFresh(t *testing.T) {
	expand := func(specs ...ObserverSpec) []ObserverConfig {
		cfgs, err := expandObservers(specs)
		if err != nil {
			t.Fatal(err)
		}
		return cfgs
	}
	mixed := expand(
		ObserverSpec{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-big","tournament-big","tage-big","L-tage-small","L-gshare-small"]}`)},
		ObserverSpec{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small","tage-small"],"grouped":true}`)},
		ObserverSpec{Kind: "btb", Options: json.RawMessage(`{"geometries":[{"entries":512,"ways":4}]}`)},
		ObserverSpec{Kind: "icache", Options: json.RawMessage(`{"geometries":[{"size_kb":16,"line_bytes":64,"ways":4}]}`)},
		ObserverSpec{Kind: "branch-mix"}, ObserverSpec{Kind: "bbl"}, ObserverSpec{Kind: "bias"}, ObserverSpec{Kind: "footprint"},
	)
	fig5 := expand(ObserverSpec{Kind: "bpred"}, ObserverSpec{Kind: "icache", Options: json.RawMessage(`{"geometries":[{"size_kb":32,"line_bytes":64,"ways":8}]}`)})
	units := []reuseUnit{
		{workload: "comd-lite", seed: 1, insts: 20_000, members: mixed},
		{workload: "xalan-lite", seed: 2, insts: 7_000, members: mixed},
		{workload: "comd-lite", seed: 3, insts: 1, members: mixed},
		{workload: "xalan-lite", seed: 1, insts: 15_000, members: fig5},
		{workload: "comd-lite", seed: 4, insts: 2_000_000_000, members: mixed, cancel: true},
		{workload: "comd-lite", seed: 1, insts: 20_000, members: mixed},
		{workload: "comd-lite", seed: 5, insts: 9_000, members: fig5},
		{workload: "xalan-lite", seed: 2, insts: 7_000, members: mixed[2:]},
	}

	sess := NewSession(2)
	handed := make([][]Outcome, len(units))
	first := make([][]string, len(units))
	for i, u := range units {
		kept := append([]*unitState(nil), sess.states...)
		handed[i] = runUnit(t, sess, u)
		first[i] = encodeOutcomes(t, handed[i])
		if u.cancel {
			for k, o := range handed[i] {
				if !errors.Is(o.Err, context.Canceled) {
					t.Fatalf("unit %d member %d of a cancelled pass: err %v", i, k, o.Err)
				}
			}
			continue
		}
		want := encodeOutcomes(t, runUnit(t, NewSession(1), u))
		for k := range want {
			if first[i][k] != want[k] {
				t.Fatalf("unit %d member %s on a reused state:\n%s\nfresh:\n%s", i, u.members[k].Key(), first[i][k], want[k])
			}
		}
		// Every unit but the first of each member set ran on a kept state.
		if reused := len(kept) > 0 && slices.Contains(kept, sess.states[len(sess.states)-1]); reused != (i != 0 && i != 3 && i != 7) {
			t.Errorf("unit %d: ran on a kept state = %v", i, reused)
		}
	}
	if len(sess.states) > 2 {
		t.Errorf("a 2-worker session keeps %d states", len(sess.states))
	}
	for i := range units {
		if got := encodeOutcomes(t, handed[i]); !slices.Equal(got, first[i]) {
			t.Errorf("unit %d's results changed after later units ran", i)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, u := range units {
				if u.cancel || (i+g)%2 == 0 {
					continue
				}
				if got := encodeOutcomes(t, runUnit(t, sess, u)); !slices.Equal(got, first[i]) {
					t.Errorf("concurrent unit %d differs from its first run", i)
				}
			}
		}()
	}
	wg.Wait()
}
