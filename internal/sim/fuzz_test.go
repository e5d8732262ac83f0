package sim

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rebalance/internal/wire"
	"rebalance/internal/workload/synth"
)

// goldenSeeds extracts seed corpus entries from the golden report file:
// the normalized spec and every shard's result artifact — real wire bytes,
// so the fuzzers start from the interesting part of the input space.
func goldenSeeds(f *testing.F) (spec []byte, results [][]byte) {
	f.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "report_v1.golden.json"))
	if err != nil {
		f.Fatalf("%v (generate with `go test ./internal/sim -run TestReportGolden -update`)", err)
	}
	var rep struct {
		Spec   json.RawMessage `json:"spec"`
		Shards []struct {
			Result json.RawMessage `json:"result"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		f.Fatal(err)
	}
	for _, sh := range rep.Shards {
		results = append(results, sh.Result)
	}
	return rep.Spec, results
}

// FuzzDecodeSpec fuzzes the two request decodes the servers run, on the
// same inputs: simd's admission step decodes a spec with DecodeSpec, and
// the worker protocol (dispatch.WorkerHandler into Session.RunShards)
// strict-decodes a shard array and validates each member with Config.
// Neither may panic, and every rejection of a decoded value must wrap
// ErrInvalidSpec — the contract that makes it a 400 or an invalid member,
// never a 500 or a retried one. (The worker answers a body that does not
// decode as an array with its own 400.)
func FuzzDecodeSpec(f *testing.F) {
	spec, _ := goldenSeeds(f)
	f.Add(spec)
	f.Add([]byte(`{"workloads":["comd-lite"],"insts":1000,"observers":[{"kind":"bbl"}]}`))
	f.Add([]byte(`{"workloads":["comd-lite","xalan-lite"],"seed_count":3,"insts":5,"engine":"reference","observers":[{"kind":"bpred","options":{"configs":["gshare-small"],"parallel":true}}]}`))
	f.Add([]byte(`{"workloads":["no-such"],"insts":1000,"observers":[{"kind":"bbl"}]}`))
	f.Add([]byte(`{"workloads":[],"insts":0}`))
	f.Add([]byte(`{"workloads":["comd-lite"],"seed_count":999999999999,"insts":1,"observers":[{"kind":"bbl"}]}`))
	f.Add([]byte(`{"workloads":["comd-lite"],"seeds":[1,1],"insts":1,"observers":[{"kind":"btb","options":{"geometries":[{"entries":100,"ways":3}]}}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"workloads":["comd-lite"],"insts":1000,"observers":[{"kind":"bbl"}]} trailing`))
	f.Add([]byte(`{"workload":"comd-lite","seed":1,"insts":1000,"observer":{"kind":"bbl"}}`))
	f.Add([]byte(`[{"workload":"comd-lite","seed":1,"insts":1000,"observer":{"kind":"bbl"}},{"workload":"no-such","seed":1,"insts":1000,"observer":{"kind":"bbl"}}]`))
	f.Add([]byte(`[{"workload":"comd-lite","seed":1,"insts":1000,"engine":"reference","observer":{"kind":"bpred","options":{"configs":["gshare-small","tage-small"]}}},null]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(data)
		if err != nil {
			if !errors.Is(err, ErrInvalidSpec) {
				t.Fatalf("DecodeSpec error does not wrap ErrInvalidSpec: %v", err)
			}
		} else if _, err := spec.GridSize(); err != nil {
			t.Fatalf("decoded spec fails its own validation: %v", err)
		}

		var specs []ShardSpec
		if wire.StrictUnmarshal(data, &specs) != nil {
			return
		}
		for i := range specs {
			if _, err := specs[i].Config(); err != nil && !errors.Is(err, ErrInvalidSpec) {
				t.Fatalf("member %d: Config error does not wrap ErrInvalidSpec: %v", i, err)
			}
		}
	})
}

// fuzzConfigs are every kind's default configurations plus a
// grouped bpred one. Configurations are immutable value types; a fuzzer
// expands them once and reuses them across iterations.
func fuzzConfigs(f *testing.F) []ObserverConfig {
	specs := []ObserverSpec{{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small","tage-small"],"grouped":true}`)}}
	for _, kind := range ObserverKinds() {
		specs = append(specs, ObserverSpec{Kind: kind})
	}
	configs, err := expandObservers(specs)
	if err != nil {
		f.Fatal(err)
	}
	return configs
}

// FuzzDecodeShardResult is the satellite fuzzer for the response surface:
// every built-in configuration's result decoder must never panic on
// arbitrary bytes, and anything it accepts must re-encode and re-decode
// to a fixed point — otherwise two coordinators could disagree about the
// same shard.
func FuzzDecodeShardResult(f *testing.F) {
	_, results := goldenSeeds(f)
	for _, r := range results {
		f.Add([]byte(r))
	}
	f.Add([]byte(`{"name":"gshare-small","cost_bits":1,"insts":[1,2],"branches":[1,1],"miss":[[0,0,0],[1,0,0]],"mpki":0,"mpki_serial":0,"mpki_parallel":0,"miss_rate":0,"mpki_by_direction":[0,0,0]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	configs := fuzzConfigs(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range configs {
			res, err := decodeResult(data, cfg)
			if err != nil {
				continue // rejection is fine; panicking is not
			}
			enc, err := res.AppendJSON(nil)
			if err != nil {
				t.Fatalf("%s: accepted input fails to re-encode: %v", cfg.Key(), err)
			}
			again, err := decodeResult(enc, cfg)
			if err != nil {
				t.Fatalf("%s: re-encoded result fails to decode: %v\nencoded: %s", cfg.Key(), err, enc)
			}
			enc2, err := again.AppendJSON(nil)
			if err != nil {
				t.Fatal(err)
			}
			if string(enc) != string(enc2) {
				t.Fatalf("%s: decode/encode not a fixed point:\nfirst:  %s\nsecond: %s", cfg.Key(), enc, enc2)
			}
		}
	})
}

// shardCorpus seeds f with whole shard records for every configuration
// fuzzConfigs names — one real record of each, and a few a writer never
// makes — and returns the configurations, by key too.
func shardCorpus(f *testing.F) ([]ObserverConfig, map[string]ObserverConfig) {
	configs := fuzzConfigs(f)
	byKey := map[string]ObserverConfig{}
	var specs []ObserverSpec
	for _, cfg := range configs {
		byKey[cfg.Key()] = cfg
		specs = append(specs, cfg.Spec())
	}
	rep, err := NewSession(1).Run(context.Background(), &Spec{Workloads: []string{"comd-lite"}, Seeds: []uint64{3}, Insts: 2000, Observers: specs})
	if err != nil {
		f.Fatal(err)
	}
	for _, sh := range rep.Shards {
		rec, err := EncodeShard(sh)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec, sh.Workload, sh.Seed, int64(2000))
	}
	head := `{"workload":"comd-lite","seed":1,"observer":"bbl","insts":5,"elapsed_ns":0`
	for _, tail := range []string{`}`, `,"result":null}`, `,"result":{}}`, `,"cached":true,"result":{"counters":{"block_n":[1,2]}},"RESULT":{}}`} {
		f.Add([]byte(head+tail), "comd-lite", uint64(1), int64(5))
	}
	f.Add([]byte(`{"error":"boom","invalid":true}`), "", uint64(0), int64(0))
	return configs, byKey
}

// FuzzDecodeShard holds the one-pass DecodeShard to decodeShardTwoLevel —
// the record strict-decoded with its result left raw, then the result read
// alone — over shardCorpus's records for every configuration: what the
// one-pass decode accepts, the two-level one accepts and decodes to the
// same shard (the scanner accepts less than encoding/json, so the converse
// does not hold); a record whose result is absent or null is refused; and
// an accepted record re-encodes to a fixed point. A record naming a
// configuration is decoded as that one only — any other fails both
// decodes' identity check. A record that names its result twice is held
// to the other properties only.
func FuzzDecodeShard(f *testing.F) {
	configs, byKey := shardCorpus(f)

	f.Fuzz(func(t *testing.T, data []byte, workload string, seed uint64, insts int64) {
		spec := ShardSpec{Workload: workload, Seed: seed, Insts: insts}
		var env oracleShardWire
		parsed := wire.StrictUnmarshal(data, &env) == nil
		absent := parsed && (env.Result == nil || string(env.Result) == "null")
		twice := repeatsKey(data, "result")
		cfgs := configs
		if cfg := byKey[env.Observer]; parsed && cfg != nil {
			cfgs = []ObserverConfig{cfg}
		}
		for _, cfg := range cfgs {
			got, err := DecodeShard(data, spec, cfg)
			want, werr := decodeShardTwoLevel(data, spec, cfg)
			if err == nil && absent {
				t.Fatalf("%s: record without a result accepted", cfg.Key())
			}
			if !twice && err == nil && werr != nil {
				t.Fatalf("%s: one-pass accepted a record the two-level decode refuses: %v", cfg.Key(), werr)
			}
			if err != nil {
				continue
			}
			enc, err := EncodeShard(got)
			if err != nil {
				t.Fatalf("%s: accepted record fails to re-encode: %v", cfg.Key(), err)
			}
			if !twice {
				if wantEnc, _ := EncodeShard(want); string(enc) != string(wantEnc) {
					t.Fatalf("%s: decodes differ:\none-pass:  %s\ntwo-level: %s", cfg.Key(), enc, wantEnc)
				}
			}
			again, err := DecodeShard(enc, spec, cfg)
			if err != nil {
				t.Fatalf("%s: re-encoded record fails to decode: %v\nrecord: %s", cfg.Key(), err, enc)
			}
			if enc2, _ := EncodeShard(again); string(enc2) != string(enc) {
				t.Fatalf("%s: decode/encode not a fixed point:\nfirst:  %s\nsecond: %s", cfg.Key(), enc, enc2)
			}
		}
	})
}

// FuzzDecodeRecord holds the record scanner to the strict decode it
// replaced — StrictUnmarshal of the whole record, its result typed by its
// kind's old wire struct (oracleDecodeRecord) — over shardCorpus's records:
// whatever DecodeShard accepts, the oracle accepts with the same shard, and
// what the appenders write of it is accepted again, to the same shard.
func FuzzDecodeRecord(f *testing.F) {
	_, byKey := shardCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte, workload string, seed uint64, insts int64) {
		// Only the configuration the record names can accept it: any other
		// fails the identity check, and a record whose envelope does not
		// scan is refused by all.
		sc := wire.NewScanner(data)
		cfg := byKey[scanEnvelope(sc).Observer]
		if sc.Err() != nil || cfg == nil {
			return
		}
		spec := ShardSpec{Workload: workload, Seed: seed, Insts: insts}
		got, err := DecodeShard(data, spec, cfg)
		if err != nil {
			return
		}
		if want, err := oracleDecodeRecord(t, data, cfg); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: scanned %+v, StrictUnmarshal %+v (err %v)\nrecord: %s", cfg.Key(), got, want, err, data)
		}
		enc, err := EncodeShard(got)
		if err != nil {
			t.Fatalf("%s: accepted record fails to re-encode: %v", cfg.Key(), err)
		}
		if again, err := DecodeShard(enc, spec, cfg); err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("%s: appended record %s decodes to %+v (err %v), want %+v", cfg.Key(), enc, again, err, got)
		}
	})
}

// FuzzShardCacheKey holds the one-pass sc2- and tr1- keys to the
// json.Marshal recipe they replaced (oracleShardKey, oracleTraceKey) over
// arbitrary names, engines, budgets, synth knobs and observer specs: a
// built-in configuration (cfg indexes fuzzConfigs) or any kind with any
// valid JSON options (keyCfg). Knobs that do not canonicalize leave the
// workload built-in, as a validated spec would be.
func FuzzShardCacheKey(f *testing.F) {
	configs := fuzzConfigs(f)
	f.Add("comd-lite", "", uint64(1), int64(1000), uint8(0), "bbl", []byte(nil), false, uint64(0), 0.0, 0, 0, false)
	f.Add("a<b>&c", "compiled", uint64(7), int64(-1), uint8(255), "k ", []byte("{ \"a\" : [1, 2] }"), true, uint64(42), 0.93, 5, 12, true)
	f.Add("bad\xff", "x", ^uint64(0), int64(1)<<62, uint8(255), "", []byte(`{"h":"<&>"}`), true, uint64(0), 1.0, 64, 1024, false)
	f.Add("comd-lite", "", uint64(3), int64(5000), uint8(0), "", []byte(nil), true, uint64(9), math.NaN(), 5, 12, false)
	f.Fuzz(func(t *testing.T, workload, engine string, seed uint64, insts int64, cfgIdx uint8, kind string, options []byte,
		useSynth bool, synthSeed uint64, bias float64, blockLen, trip int, weighted bool) {
		cfg := ObserverConfig(keyCfg{ObserverSpec{Kind: kind, Options: options}})
		if int(cfgIdx) < len(configs) {
			cfg = configs[cfgIdx]
		} else if len(options) > 0 && !json.Valid(options) {
			return // no observer spec carries invalid options
		}
		sp := ShardSpec{Workload: workload, Seed: seed, Insts: insts, Engine: engine}
		if useSynth {
			p := synth.Params{Name: "fuzz", Seed: synthSeed, Bias: bias, BlockLen: blockLen, TripCounts: []int{trip, 20}, Dispatch: synth.DispatchPeriodic}
			if weighted {
				p.Dispatch = synth.DispatchWeighted
			}
			if _, err := p.Canonical(); err == nil {
				sp.Synth = &p
			}
		}
		if got, want := ShardCacheKey(sp, cfg), oracleShardKey(t, sp, cfg); got != want {
			t.Fatalf("ShardCacheKey = %s, want %s (spec %+v, observer %+v)", got, want, sp, cfg.Spec())
		}
		if got, want := traceKey(sp.Workload, sp.Synth, sp.Seed, sp.Insts), oracleTraceKey(t, sp); got != want {
			t.Fatalf("traceKey = %s, want %s (spec %+v)", got, want, sp)
		}
	})
}
