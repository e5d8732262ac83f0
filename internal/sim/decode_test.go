package sim

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
)

// TestDecodeReportRoundTrip: a marshalled sim/v1 report decodes back to a
// typed Report whose re-marshalling is byte-identical — the contract the
// async client loop (submit → poll → fetch → write out) stands on.
func TestDecodeReportRoundTrip(t *testing.T) {
	sess := NewSession(2)
	rep, err := sess.Run(context.Background(), &Spec{
		Workloads: []string{"comd-lite", "xalan-lite"},
		Seeds:     []uint64{1, 2},
		Insts:     20_000,
		Observers: []ObserverSpec{
			{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small","tage-small"]}`)},
			{Kind: "branch-mix"},
			{Kind: "bbl"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeReport(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := json.Marshal(dec)
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != string(enc2) {
		t.Errorf("decoded report re-marshals differently:\n got: %s\nwant: %s", enc2, enc)
	}
	// The decoded results are concrete types: merging them must work like
	// the in-process originals.
	if len(dec.Merged) == 0 {
		t.Fatal("decoded report has no merged entries")
	}
	for i := range dec.Merged {
		if dec.Merged[i].Result == nil {
			t.Errorf("merged %d has nil result", i)
		}
	}
}

func TestDecodeReportRejectsGarbage(t *testing.T) {
	for name, data := range map[string]string{
		"not json":       `{`,
		"wrong schema":   `{"schema":"sim/v0","spec":{"workloads":["comd-lite"],"insts":1,"observers":[{"kind":"bbl"}]},"workers":0,"shards":[],"merged":[],"total_insts":0,"wall_ns":0}`,
		"no spec":        `{"schema":"sim/v1","workers":0,"shards":[],"merged":[],"total_insts":0,"wall_ns":0}`,
		"alien observer": `{"schema":"sim/v1","spec":{"workloads":["comd-lite"],"seeds":[1],"insts":1,"engine":"compiled","observers":[{"kind":"bbl"}]},"workers":0,"shards":[{"workload":"comd-lite","seed":1,"observer":"bpred/gshare-small","insts":1,"elapsed_ns":0,"result":{}}],"merged":[],"total_insts":0,"wall_ns":0}`,
	} {
		if _, err := DecodeReport([]byte(data)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestShardDoneHook: a run under WithShardDone delivers every shard's
// terminal outcome exactly once, and the hook changes no report bytes.
func TestShardDoneHook(t *testing.T) {
	spec := &Spec{
		Workloads: []string{"comd-lite"},
		Seeds:     []uint64{1, 2, 3},
		Insts:     10_000,
		Observers: []ObserverSpec{{Kind: "bbl"}, {Kind: "bias"}},
	}
	sess := NewSession(2)
	bare, err := sess.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var done, failed int
	ctx := WithShardDone(context.Background(), func(sh Shard, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			failed++
			return
		}
		done++
		if sh.Workload != "comd-lite" || sh.Insts < 10_000 {
			t.Errorf("hook delivered incomplete shard: %+v", sh)
		}
	})
	hooked, err := NewSession(2).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 3; done != want || failed != 0 {
		t.Errorf("hook saw %d done, %d failed; want %d done, 0 failed", done, failed, want)
	}

	if string(renderGolden(t, bare)) != string(renderGolden(t, hooked)) {
		t.Error("progress hook changed report bytes")
	}
}

// TestShardDoneFiltersCancellation: ShardDone must swallow cancellation
// outcomes — a skipped shard has no terminal result to report.
func TestShardDoneFiltersCancellation(t *testing.T) {
	called := false
	ctx := WithShardDone(context.Background(), func(Shard, error) { called = true })
	ShardDone(ctx, Shard{}, context.Canceled)
	ShardDone(ctx, Shard{}, context.DeadlineExceeded)
	if called {
		t.Error("hook invoked for a cancellation outcome")
	}
	ShardDone(ctx, Shard{}, nil)
	if !called {
		t.Error("hook not invoked for a success")
	}
}
