package sim

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"
)

// propertyConfigs expands every observer kind's default configuration set
// — driven by ObserverKinds, not a hand-maintained list, so a new kind is
// automatically covered — plus a grouped bpred configuration to cover the
// GroupResult wire path.
func propertyConfigs(t *testing.T) []ObserverConfig {
	t.Helper()
	var specs []ObserverSpec
	for _, kind := range ObserverKinds() {
		specs = append(specs, ObserverSpec{Kind: kind})
	}
	configs, err := expandObservers(specs)
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := expandObservers([]ObserverSpec{{
		Kind:    "bpred",
		Options: json.RawMessage(`{"configs":["gshare-small","tage-small"],"grouped":true}`),
	}})
	if err != nil {
		t.Fatal(err)
	}
	return append(configs, grouped...)
}

// encode fails the test on encoding errors, keeping property assertions
// terse.
func encode(t *testing.T, r Result) string {
	t.Helper()
	enc, err := r.EncodeJSON()
	if err != nil {
		t.Fatalf("encoding %T: %v", r, err)
	}
	return string(enc)
}

// TestResultProperties checks, for every observer
// configuration over randomized shards:
//
//   - Decode(EncodeJSON(r)) round-trips exactly (re-encoding is
//     byte-identical),
//   - Merge is commutative and associative on shard results,
//   - merging decoded (remote) shards equals merging the in-process
//     originals,
//   - Spec() re-expands to the same single configuration.
//
// Together these are the algebra the dispatch layer relies on: any
// partition of a shard grid across any mix of local and remote backends
// folds to the same report.
func TestResultProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(20160925)) // fixed: failures must reproduce
	seeds := make([]uint64, 3)
	seen := map[uint64]bool{}
	for i := range seeds {
		for {
			s := uint64(rng.Intn(1 << 20))
			if s != 0 && !seen[s] {
				seen[s] = true
				seeds[i] = s
				break
			}
		}
	}

	configs := propertyConfigs(t)
	sess := NewSession(2)
	c, err := sess.Compiled("comd-lite")
	if err != nil {
		t.Fatal(err)
	}

	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.Key(), func(t *testing.T) {
			// The Spec() half of the wire contract: the configuration
			// re-describes itself as data that expands back to itself.
			re, err := expandObservers([]ObserverSpec{cfg.Spec()})
			if err != nil {
				t.Fatalf("re-expanding Spec(): %v", err)
			}
			if len(re) != 1 || re[0].Key() != cfg.Key() {
				t.Fatalf("Spec() re-expands to %d configs (first key %q), want exactly %q", len(re), re[0].Key(), cfg.Key())
			}

			results := make([]Result, len(seeds))
			decoded := make([]Result, len(seeds))
			for i, seed := range seeds {
				sh, err := sess.runJob(context.Background(), c, cellOf("comd-lite", cfg, seed, 6_000))
				if err != nil {
					t.Fatal(err)
				}
				results[i] = sh.Result

				// Decode round-trip: byte-identical re-encode.
				enc := encode(t, sh.Result)
				dec, err := decodeResult([]byte(enc), cfg)
				if err != nil {
					t.Fatalf("decoding own encoding: %v", err)
				}
				if got := encode(t, dec); got != enc {
					t.Fatalf("decode round-trip drifted:\n in: %s\nout: %s", enc, got)
				}
				decoded[i] = dec
			}
			a, b, cc := results[0], results[1], results[2]

			// fold merges results into a fresh accumulator.
			fold := func(rs ...Result) Result {
				acc := cfg.NewResult()
				for _, r := range rs {
					if err := acc.Merge(r); err != nil {
						t.Fatalf("merging %T: %v", r, err)
					}
				}
				return acc
			}

			// Commutativity: a+b == b+a.
			if ab, ba := encode(t, fold(a, b)), encode(t, fold(b, a)); ab != ba {
				t.Errorf("merge not commutative:\na+b: %s\nb+a: %s", ab, ba)
			}

			// Associativity: (a+b)+c == a+(b+c).
			left := fold(fold(a, b), cc)
			right := fold(a, fold(b, cc))
			if l, r := encode(t, left), encode(t, right); l != r {
				t.Errorf("merge not associative:\n(a+b)+c: %s\na+(b+c): %s", l, r)
			}

			// Remote shards fold identically: merging decoded copies
			// equals merging the in-process originals.
			local := encode(t, fold(a, b, cc))
			remote := encode(t, fold(decoded...))
			if local != remote {
				t.Errorf("merged decoded shards differ from merged originals:\nlocal:  %s\nremote: %s", local, remote)
			}
		})
	}
}

// TestMergeRejectsMismatchedResults checks merge refuses cross-type and
// cross-configuration folds instead of silently corrupting counters —
// the guard the coordinator relies on when a worker misroutes a shard.
func TestMergeRejectsMismatchedResults(t *testing.T) {
	configs := propertyConfigs(t)
	sess := NewSession(1)
	c, err := sess.Compiled("comd-lite")
	if err != nil {
		t.Fatal(err)
	}
	results := make([]Result, len(configs))
	for i, cfg := range configs {
		sh, err := sess.runJob(context.Background(), c, cellOf("comd-lite", cfg, 5, 3_000))
		if err != nil {
			t.Fatal(err)
		}
		results[i] = sh.Result
	}
	// Every pair of distinct configurations must refuse to merge: either
	// the concrete types differ, or the embedded identity (predictor name,
	// geometry, group membership) does.
	for i, cfg := range configs {
		acc := cfg.NewResult()
		if err := acc.Merge(results[i]); err != nil {
			t.Fatalf("%s: self merge failed: %v", cfg.Key(), err)
		}
		for j, other := range results {
			if i == j {
				continue
			}
			if err := acc.Merge(other); err == nil {
				t.Errorf("%s accepted a %s result", cfg.Key(), configs[j].Key())
			}
		}
	}
}
