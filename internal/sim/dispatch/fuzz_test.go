package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"rebalance/internal/sim"
)

// FuzzDecodeAnswer is the fuzzer for the unit protocol's response surface:
// whatever a hostile or broken worker answers a three-member unit with —
// wrong length, a record where an error belongs or the reverse, trailing
// bytes — decodeAnswer never panics, and what it accepts is exactly one
// outcome per member, each the member's own failure or a shard answering
// that member's spec with at least its budget: never a misfiled shard.
// Everything else is the call's error, a backend failure.
func FuzzDecodeAnswer(f *testing.F) {
	specs := []sim.ShardSpec{
		{Workload: "comd-lite", Seed: 1, Insts: 2_000, Observer: sim.ObserverSpec{Kind: "bbl"}},
		{Workload: "comd-lite", Seed: 1, Insts: 2_000, Observer: sim.ObserverSpec{Kind: "branch-mix"}},
		{Workload: "comd-lite", Seed: 2, Insts: 2_000, Observer: sim.ObserverSpec{Kind: "bbl"}},
	}
	cfgs := make([]sim.ObserverConfig, len(specs))
	for i := range specs {
		var err error
		if cfgs[i], err = specs[i].Config(); err != nil {
			f.Fatal(err)
		}
	}
	out, err := sim.NewSession(1).RunShards(context.Background(), specs)
	if err != nil {
		f.Fatal(err)
	}
	recs := make([][]byte, len(out))
	for i := range out {
		if recs[i], err = sim.EncodeShard(out[i].Shard); err != nil {
			f.Fatal(err)
		}
	}
	answer := func(recs ...[]byte) []byte {
		return append(append([]byte{'['}, bytes.Join(recs, []byte{','})...), ']')
	}
	failed, err := json.Marshal(memberError{Error: "sim: invalid spec", Invalid: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(answer(recs...))
	f.Add(answer(recs[0], failed, recs[2]))
	f.Add(answer(recs[:2]...))                        // short
	f.Add(answer(recs[0], recs[1], recs[2], recs[2])) // long
	f.Add(answer(recs[1], recs[0], recs[2]))          // misfiled
	f.Add(answer(recs[2], recs[1], recs[0]))          // right kind, wrong seed
	f.Add(append(answer(recs...), "[]"...))           // trailing bytes
	f.Add(answer(recs[0], []byte(`{"error":""}`), recs[2]))
	f.Add(answer(recs[0], append(bytes.TrimSuffix(recs[1], []byte{'}'}), `,"error":"x"}`...), recs[2])) // both at once
	f.Add(recs[0])
	f.Add([]byte(`null`))
	f.Add([]byte(`[null,null,null]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := decodeAnswer(data, specs, cfgs)
		if err != nil {
			return // a backend failure; rejection is fine, panicking is not
		}
		if len(out) != len(specs) {
			t.Fatalf("accepted %d outcomes for %d members", len(out), len(specs))
		}
		for i, o := range out {
			if o.Err != nil {
				continue
			}
			if sh := o.Shard; sh.Workload != specs[i].Workload || sh.Seed != specs[i].Seed || sh.Observer != cfgs[i].Key() || sh.Insts < specs[i].Insts || sh.Result == nil {
				t.Fatalf("member %d accepted a shard that does not answer it: %+v", i, sh)
			}
		}
	})
}
