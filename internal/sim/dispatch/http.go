package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"rebalance/internal/sim"
	"rebalance/internal/wire"
)

// ShardsPath is the worker protocol endpoint: a worker accepts a JSON array
// of sim.ShardSpecs — one unit — as a POST body and answers 200 with an
// index-aligned array of member records: the shard's wire record (the same
// shape as a sim/v1 report's shard entries), or {"error", "invalid"} for a
// member that failed.
//
// Failure semantics, per member: "invalid": true means the shard spec
// itself is unrunnable — the coordinator maps it to sim.ErrInvalidSpec and
// does not retry it, because no backend can run it; any other member error
// is the worker's failure for that shard alone. Per call: 400 (a body that
// is not an array of shard specs, or a budget over the worker's limit — a
// unit's members share one) and 413 (a body over the worker's size limit)
// are the request's fault — every member fails with sim.ErrInvalidSpec,
// unretried, the worker not blamed. Any other non-200 status, a transport
// error, or an answer that is not exactly one well-formed record per member
// — wrong length, a record that does not decode or answers another shard —
// counts as a backend failure for every member sent: the Dispatcher retries
// them with backoff, preferring a different backend, and marks the worker
// dead after consecutive failures.
const ShardsPath = "/v1/shards"

// maxShardRespBytes bounds worker responses; a shard record is a few KB
// even with footprint chunk maps and a unit is a coordinate's worth of
// them, so anything larger is a broken worker.
const maxShardRespBytes = 16 << 20

// maxShardSpecBytes bounds the request body a worker reads: a shard spec is
// a few hundred bytes (a few KB with an inline synth scenario).
const maxShardSpecBytes = 1 << 20

// memberError is the record of a member that failed, in place of its shard.
type memberError struct {
	Error   string `json:"error"`
	Invalid bool   `json:"invalid,omitempty"`
}

// HTTPBackend runs shards on a remote simd worker process.
type HTTPBackend struct {
	base   string
	client *http.Client
}

// NewHTTPBackend returns a backend for the worker at base (e.g.
// "http://host:8080"; a trailing slash is trimmed). A nil client selects
// http.DefaultClient; pass one to set timeouts or transport knobs.
func NewHTTPBackend(base string, client *http.Client) *HTTPBackend {
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPBackend{base: strings.TrimRight(base, "/"), client: client}
}

// Name implements Backend.
func (b *HTTPBackend) Name() string { return b.base }

// RunShards implements Backend: POST the specs as one array, decode the
// answer record by record, verify each answers its spec. A spec that does
// not expand fails alone and is not sent. Embedded results are decoded to
// their concrete types through each spec's observer configuration, so the
// caller merges them exactly like locally-produced shards.
func (b *HTTPBackend) RunShards(ctx context.Context, specs []sim.ShardSpec) ([]sim.Outcome, error) {
	out := make([]sim.Outcome, len(specs))
	send := make([]sim.ShardSpec, 0, len(specs))
	cfgs := make([]sim.ObserverConfig, 0, len(specs))
	at := make([]int, 0, len(specs)) // send[k] is specs[at[k]]
	for i := range specs {
		cfg, err := specs[i].Config()
		if err != nil {
			out[i].Err = err
			continue
		}
		send, cfgs, at = append(send, specs[i]), append(cfgs, cfg), append(at, i)
	}
	if len(send) == 0 {
		return out, nil
	}
	res, err := b.post(ctx, send, cfgs)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	for k, i := range at {
		if err != nil {
			out[i].Err = err
		} else {
			out[i] = res[k]
		}
	}
	return out, nil
}

// post is one round trip of the worker protocol; its error fails the call,
// every member sent.
func (b *HTTPBackend) post(ctx context.Context, send []sim.ShardSpec, cfgs []sim.ObserverConfig) ([]sim.Outcome, error) {
	body, err := json.Marshal(send)
	if err != nil {
		return nil, fmt.Errorf("dispatch: marshalling shard specs: %w", err)
	}
	data, status, err := wire.Do(ctx, b.client, http.MethodPost, b.base+ShardsPath, body, maxShardRespBytes)
	if err != nil {
		return nil, err
	}
	switch status {
	case http.StatusOK:
		res, err := decodeAnswer(data, send, cfgs)
		if err != nil {
			return nil, fmt.Errorf("worker %s: %w", b.base, err)
		}
		return res, nil
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		// The worker judged the request itself unservable; retrying cannot
		// help.
		return nil, fmt.Errorf("%w: worker %s rejected shards: %s", sim.ErrInvalidSpec, b.base, wire.ErrorMessage(data))
	default:
		return nil, fmt.Errorf("worker %s: status %d: %s", b.base, status, wire.ErrorMessage(data))
	}
}

// decodeAnswer reads a worker's 200 body against the specs it answers: one
// outcome per spec — the shard asked for, or the member's own failure — or
// the error of an answer that is not exactly that (wrong length, a record
// that is neither, a shard answering another spec), which is the worker's
// failure and never a member's.
func decodeAnswer(data []byte, specs []sim.ShardSpec, cfgs []sim.ObserverConfig) ([]sim.Outcome, error) {
	var recs []json.RawMessage
	if err := wire.StrictUnmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("decoding answer: %w", err)
	}
	if len(recs) != len(specs) {
		return nil, fmt.Errorf("answered %d records for %d shards", len(recs), len(specs))
	}
	out := make([]sim.Outcome, len(recs))
	for k, rec := range recs {
		sh, err := sim.DecodeShard(rec, specs[k], cfgs[k])
		if err == nil {
			out[k].Shard = sh
			continue
		}
		var me memberError
		if wire.StrictUnmarshal(rec, &me) != nil || me.Error == "" {
			return nil, err
		}
		out[k].Err = errors.New(me.Error)
		if me.Invalid {
			out[k].Err = fmt.Errorf("%w: worker rejected shard: %s", sim.ErrInvalidSpec, me.Error)
		}
	}
	return out, nil
}

// RunShard is sim.RunOne on the backend, the spelling bench/ compiles
// against.
func (b *HTTPBackend) RunShard(ctx context.Context, spec sim.ShardSpec) (sim.Shard, error) {
	return sim.RunOne(ctx, b, spec)
}

// HealthzPath is the worker liveness endpoint Probe hits. cmd/simd serves
// it in both modes; any 200 answer means the process is up.
const HealthzPath = "/healthz"

// Probe implements Backend: a GET of the worker's health endpoint. It costs
// no shard attempt, so a dead worker is re-checked cheaply instead of
// being handed a real shard it will probably fail.
func (b *HTTPBackend) Probe(ctx context.Context) error {
	_, status, err := wire.Do(ctx, b.client, http.MethodGet, b.base+HealthzPath, nil, 1<<10)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("worker %s: healthz status %d", b.base, status)
	}
	return err
}

// WorkerHandler serves the worker protocol over sess: POST /v1/shards runs
// one unit — an array of shard specs — on the session's pool and
// compiled-program cache, as sess.RunShards plans it. cmd/simd mounts it in
// both modes; tests drive it through httptest to stand up in-process
// workers. maxInsts > 0 rejects arrays holding a larger instruction budget,
// mirroring the coordinator endpoint's guard.
func WorkerHandler(sess *sim.Session, maxInsts int64) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+ShardsPath, func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxShardSpecBytes))
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			wire.WriteError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("shard array exceeds the worker's %d-byte request limit", tooBig.Limit))
			return
		}
		if err != nil {
			// A failed body read is a transport problem, not a judgment on
			// the specs. It must NOT be a 400: the coordinator maps 400 to
			// sim.ErrInvalidSpec and permanently fails the shards, whereas a
			// 500 is retried and failed over like any backend fault.
			wire.WriteError(w, http.StatusInternalServerError, fmt.Errorf("reading shard array: %w", err))
			return
		}
		var specs []sim.ShardSpec
		if err := wire.StrictUnmarshal(body, &specs); err != nil {
			wire.WriteError(w, http.StatusBadRequest, fmt.Errorf("%w: decoding shard array: %v", sim.ErrInvalidSpec, err))
			return
		}
		for i := range specs {
			if maxInsts > 0 && specs[i].Insts > maxInsts {
				wire.WriteError(w, http.StatusBadRequest, fmt.Errorf("%w: member %d: per-shard budget %d exceeds worker limit %d",
					sim.ErrInvalidSpec, i, specs[i].Insts, maxInsts))
				return
			}
		}
		// RunShards expands each member: an invalid one fails alone.
		out, err := sess.RunShards(r.Context(), specs)
		if err != nil {
			wire.WriteError(w, http.StatusInternalServerError, err)
			return
		}
		recs := make([][]byte, len(out))
		for i := range out {
			err := out[i].Err
			if err == nil {
				recs[i], err = sim.EncodeShard(out[i].Shard)
			}
			if err != nil {
				// A string and a bool cannot fail to marshal.
				recs[i], _ = json.Marshal(memberError{Error: err.Error(), Invalid: errors.Is(err, sim.ErrInvalidSpec)})
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(append(append([]byte{'['}, bytes.Join(recs, []byte{','})...), ']'))
	})
	// Serve the liveness endpoint here too, so every mounted worker —
	// including in-process test workers — answers revival probes.
	mux.HandleFunc("GET "+HealthzPath, func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	return mux
}

// ParseBackends builds HTTP backends from a comma-separated URL list (the
// shape of simd's -backends flag), rejecting empty and
// duplicate entries. A nil client selects http.DefaultClient.
func ParseBackends(csv string, client *http.Client) ([]Backend, error) {
	parts := strings.Split(csv, ",")
	out := make([]Backend, 0, len(parts))
	seen := map[string]bool{}
	for _, p := range parts {
		u := strings.TrimRight(strings.TrimSpace(p), "/")
		if u == "" {
			return nil, fmt.Errorf("dispatch: empty backend URL in %q", csv)
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("dispatch: backend %q is not an http(s) URL", u)
		}
		if seen[u] {
			return nil, fmt.Errorf("dispatch: duplicate backend %q", u)
		}
		seen[u] = true
		out = append(out, NewHTTPBackend(u, client))
	}
	return out, nil
}

// DefaultClient returns an http.Client suitable for shard traffic: no
// overall timeout (shards legitimately run for a while, and the response
// header only arrives when the shard finishes; cancellation flows through
// the request context) but a bounded connect phase so a dead worker fails
// fast instead of hanging a dispatcher slot.
func DefaultClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			DialContext:     (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			IdleConnTimeout: 90 * time.Second,
		},
	}
}
