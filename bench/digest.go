package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"rebalance/internal/sim"
	"rebalance/internal/wire"
)

// normalizeReport returns a shallow copy of rep with every field that
// legitimately varies between runs of one spec zeroed: the wall, the pool
// size (0 for a dispatched run, the host's core count otherwise), per-shard
// elapsed times and cache marks. Every simulated statistic stays.
func normalizeReport(rep *sim.Report) *sim.Report {
	out := *rep
	out.WallNS = 0
	out.Workers = 0
	out.Shards = make([]sim.Shard, len(rep.Shards))
	for i, sh := range rep.Shards {
		sh.ElapsedNS = 0
		sh.Cached = false
		out.Shards[i] = sh
	}
	return &out
}

// reportDigest is the SHA-256 of the normalised report's JSON: equal
// digests mean every simulated counter, the shard order and the merged
// folds are bit-identical.
func reportDigest(rep *sim.Report) (string, error) {
	enc, err := json.Marshal(normalizeReport(rep))
	if err != nil {
		return "", fmt.Errorf("encoding normalised report: %w", err)
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:]), nil
}

//go:embed golden.json
var goldenJSON []byte

// golden holds the committed digests of every workload's report at the
// default seed and sizes.
type golden struct {
	Schema  string            `json:"schema"`
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

const goldenSchema = "bench-golden/v1"

func loadGolden() (*golden, error) {
	var g golden
	if err := wire.StrictUnmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("decoding golden.json: %w", err)
	}
	if g.Schema != goldenSchema {
		return nil, fmt.Errorf("golden.json: schema %q, want %q", g.Schema, goldenSchema)
	}
	return &g, nil
}
