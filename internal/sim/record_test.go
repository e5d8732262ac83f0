package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"rebalance/internal/wire"
)

// The oracles of the one-pass record codec are the encode and decode it
// replaced: wire structs that nest each result as a json.RawMessage,
// marshalled by encoding/json, and the two-level decode that reads a record
// with its result left raw and then decodes the result alone.

type oracleShardWire struct {
	Workload  string          `json:"workload"`
	Seed      uint64          `json:"seed"`
	Observer  string          `json:"observer"`
	Insts     int64           `json:"insts"`
	ElapsedNS int64           `json:"elapsed_ns"`
	Cached    bool            `json:"cached,omitempty"`
	Result    json.RawMessage `json:"result"`
}

type oracleMergedWire struct {
	Workload string          `json:"workload"`
	Observer string          `json:"observer"`
	Seeds    int             `json:"seeds"`
	Result   json.RawMessage `json:"result"`
}

type oracleReportWire struct {
	Schema       string             `json:"schema"`
	Spec         *Spec              `json:"spec"`
	Workers      int                `json:"workers"`
	Shards       []oracleShardWire  `json:"shards"`
	FailedShards []FailedShard      `json:"failed_shards,omitempty"`
	Merged       []oracleMergedWire `json:"merged"`
	TotalInsts   int64              `json:"total_insts"`
	WallNS       int64              `json:"wall_ns"`
}

func oracleResult(t testing.TB, r Result) json.RawMessage {
	t.Helper()
	if r == nil {
		return json.RawMessage("null")
	}
	enc, err := r.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func oracleShard(t testing.TB, sh Shard) oracleShardWire {
	return oracleShardWire{Workload: sh.Workload, Seed: sh.Seed, Observer: sh.Observer, Insts: sh.Insts,
		ElapsedNS: sh.ElapsedNS, Cached: sh.Cached, Result: oracleResult(t, sh.Result)}
}

func oracleMerged(t testing.TB, m Merged) oracleMergedWire {
	return oracleMergedWire{Workload: m.Workload, Observer: m.Observer, Seeds: m.Seeds, Result: oracleResult(t, m.Result)}
}

func oracleReport(t testing.TB, r *Report) oracleReportWire {
	w := oracleReportWire{Schema: r.Schema, Spec: r.Spec, Workers: r.Workers, FailedShards: r.FailedShards,
		TotalInsts: r.TotalInsts, WallNS: r.WallNS}
	if r.Shards != nil {
		w.Shards = make([]oracleShardWire, len(r.Shards))
		for i, sh := range r.Shards {
			w.Shards[i] = oracleShard(t, sh)
		}
	}
	if r.Merged != nil {
		w.Merged = make([]oracleMergedWire, len(r.Merged))
		for i, m := range r.Merged {
			w.Merged[i] = oracleMerged(t, m)
		}
	}
	return w
}

// decodeShardTwoLevel is the decode DecodeShard replaced: the record with
// its result raw, the identity checks, then the result decoded alone.
func decodeShardTwoLevel(data []byte, spec ShardSpec, cfg ObserverConfig) (Shard, error) {
	var w oracleShardWire
	if err := wire.StrictUnmarshal(data, &w); err != nil {
		return Shard{}, err
	}
	if w.Workload != spec.Workload || w.Seed != spec.Seed || w.Observer != cfg.Key() {
		return Shard{}, fmt.Errorf("identity mismatch")
	}
	if w.Insts < spec.Insts {
		return Shard{}, fmt.Errorf("short shard")
	}
	res, err := decodeResult(w.Result, cfg)
	if err != nil {
		return Shard{}, err
	}
	return Shard{Workload: w.Workload, Seed: w.Seed, Observer: w.Observer, Insts: w.Insts,
		ElapsedNS: w.ElapsedNS, Cached: w.Cached, Result: res}, nil
}

// awkwardNames are strings encoding/json must escape, or must not: HTML
// characters, the JS line terminators, control characters, invalid UTF-8,
// quotes and backslashes, and plain multi-byte text. Synth scenario names
// are user input, so any of them can reach a record.
var awkwardNames = []string{
	"a<b>&c",
	"line\u2028sep\u2029end",
	"ctl\x00\x01\x1f\t\n\r\b\f\x7f",
	"bad\xff\xfe utf8 \xed\xa0\x80 \xc3",
	`quote"back\slash/`,
	"ünïcödé ✓ 𝄞",
	"",
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	cases := append([]string{"plain-ascii_0.9 name"}, awkwardNames...)
	for c := 0; c < 256; c++ {
		cases = append(cases, string([]byte{'x', byte(c), 'y'}))
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString([]byte("prefix"), s); string(got) != "prefix"+string(want) {
			t.Errorf("appendString(%q) = %s, want %s", s, got[len("prefix"):], want)
		}
	}
}

// recordTestReport runs one of every observer kind, plus a grouped bpred
// configuration, over two workloads and two seeds.
func recordTestReport(t *testing.T) *Report {
	t.Helper()
	spec := goldenRunSpec()
	spec.Insts = 10_000
	spec.Observers = append(fullObserverSpecs(), ObserverSpec{
		Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small","tage-small"],"grouped":true}`),
	})
	rep, err := NewSession(2).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRecordAppendersMatchEncodingJSON: Shard, Merged and Report write
// exactly the bytes json.Marshal wrote for the nested-RawMessage wire
// structs they replaced — the real grid, every name encoding/json escapes,
// nil and empty lists, failed shards present and absent, cached marks and
// nil results.
func TestRecordAppendersMatchEncodingJSON(t *testing.T) {
	base := recordTestReport(t)
	variant := func(edit func(r *Report)) *Report {
		r := *base
		r.Shards = append([]Shard(nil), base.Shards...)
		r.Merged = append([]Merged(nil), base.Merged...)
		edit(&r)
		return &r
	}
	cases := map[string]*Report{
		"real":         base,
		"nil lists":    variant(func(r *Report) { r.Shards, r.Merged = nil, nil }),
		"empty lists":  variant(func(r *Report) { r.Shards, r.Merged = []Shard{}, []Merged{} }),
		"nil spec":     variant(func(r *Report) { r.Spec = nil }),
		"empty failed": variant(func(r *Report) { r.FailedShards = []FailedShard{} }),
		"cached+nil":   variant(func(r *Report) { r.Shards[0].Cached, r.Shards[1].Result, r.Merged[0].Result = true, nil, nil }),
		"failed shards": variant(func(r *Report) {
			r.FailedShards = []FailedShard{{Workload: "w", Seed: 3, Observer: "bbl", Attempts: 2, Error: "boom"}}
		}),
	}
	for i, name := range awkwardNames {
		cases[fmt.Sprintf("name %d", i)] = variant(func(r *Report) {
			r.Schema = name
			for k := range r.Shards {
				r.Shards[k].Workload, r.Shards[k].Observer = name, name+"/obs"
			}
			for k := range r.Merged {
				r.Merged[k].Workload, r.Merged[k].Observer = name, "obs/"+name
			}
			r.FailedShards = []FailedShard{{Workload: name, Observer: name, Error: name}}
		})
	}
	for name, rep := range cases {
		t.Run(name, func(t *testing.T) {
			want, err := json.Marshal(oracleReport(t, rep))
			if err != nil {
				t.Fatal(err)
			}
			direct, err := rep.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(direct, want) || !bytes.Equal(got, want) {
				t.Fatalf("report bytes differ from the oracle's:\nMarshalJSON:  %.300s\njson.Marshal: %.300s\noracle:       %.300s", direct, got, want)
			}
			wantIndent, _ := json.MarshalIndent(oracleReport(t, rep), "", "  ")
			if gotIndent, err := json.MarshalIndent(rep, "", "  "); err != nil || !bytes.Equal(gotIndent, wantIndent) {
				t.Fatalf("indented report differs from the oracle's (err %v)", err)
			}
			for _, sh := range rep.Shards {
				want, _ := json.Marshal(oracleShard(t, sh))
				if got, err := EncodeShard(sh); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("EncodeShard = %s (err %v), want %s", got, err, want)
				}
			}
			for _, m := range rep.Merged {
				want, _ := json.Marshal(oracleMerged(t, m))
				if got, err := json.Marshal(m); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("Merged encodes as %s (err %v), want %s", got, err, want)
				}
			}
		})
	}
}

// TestDecodeShardRejectsAbsentResult: a record whose result is missing or
// null is refused for every configuration, while the same record with its
// result decodes.
func TestDecodeShardRejectsAbsentResult(t *testing.T) {
	rep := recordTestReport(t)
	cfgs, err := expandObservers(rep.Spec.Observers)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]ObserverConfig{}
	for _, cfg := range cfgs {
		byKey[cfg.Key()] = cfg
	}
	for _, sh := range rep.Shards {
		cfg, spec := byKey[sh.Observer], ShardSpec{Workload: sh.Workload, Seed: sh.Seed, Insts: sh.Insts}
		enc, err := EncodeShard(sh)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeShard(enc, spec, cfg); err != nil {
			t.Fatalf("%s: intact record rejected: %v", sh.Observer, err)
		}
		at := bytes.Index(enc, []byte(`,"result":`))
		for _, rec := range []string{string(enc[:at]) + "}", string(enc[:at]) + `,"result":null}`} {
			if _, err := DecodeShard([]byte(rec), spec, cfg); err == nil {
				t.Errorf("%s: record without a result accepted: %.120s", sh.Observer, rec)
			}
		}
	}
}

// repeatsKey reports whether data is an object naming key more than once,
// matched as encoding/json matches a field name (case-insensitively).
func repeatsKey(data []byte, key string) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	n := 0
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if name, ok := tok.(string); ok && strings.EqualFold(name, key) {
			n++
		}
		var skip json.RawMessage
		if dec.Decode(&skip) != nil {
			return false
		}
	}
	return n > 1
}
