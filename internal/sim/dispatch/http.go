package dispatch

import (
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

// ShardsPath is the worker protocol endpoint: a worker accepts a
// sim.ShardSpec as a JSON POST body and responds with the shard's wire
// record (the same shape as a sim/v1 report's shard entries).
//
// Failure semantics: 400 with a JSON {"error": ...} body means the shard
// spec itself is invalid — the coordinator maps it to sim.ErrInvalidSpec
// and does not retry, because no backend can run it. Any other non-200
// status, a transport error, or a response that fails to decode counts as
// a backend failure: the Dispatcher retries the shard with backoff,
// preferring a different backend, and marks the worker dead after
// consecutive failures.
const ShardsPath = "/v1/shards"

// maxShardRespBytes bounds worker responses; a shard record is a few KB
// even with footprint chunk maps, so anything larger is a broken worker.
const maxShardRespBytes = 16 << 20

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

// RunShard implements Backend: POST the spec, decode the shard, verify it
// answers this spec. The embedded result is decoded to its concrete type
// through the spec's observer configuration, so the caller merges it
// exactly like a locally-produced shard.
func (b *HTTPBackend) RunShard(ctx context.Context, spec sim.ShardSpec) (sim.Shard, error) {
	cfg, err := spec.Config()
	if err != nil {
		return sim.Shard{}, err
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return sim.Shard{}, fmt.Errorf("dispatch: marshalling shard spec: %w", err)
	}
	data, status, err := wire.Do(ctx, b.client, http.MethodPost, b.base+ShardsPath, body, maxShardRespBytes)
	if err != nil {
		return sim.Shard{}, err
	}
	if status != http.StatusOK {
		msg := wire.ErrorMessage(data)
		if status == http.StatusBadRequest {
			// The worker judged the spec invalid; retrying cannot help.
			return sim.Shard{}, fmt.Errorf("%w: worker %s rejected shard: %s", sim.ErrInvalidSpec, b.base, msg)
		}
		return sim.Shard{}, fmt.Errorf("worker %s: status %d: %s", b.base, status, msg)
	}
	return sim.DecodeShard(data, spec, cfg)
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

// WorkerHandler serves the worker protocol over sess: POST /v1/shards
// runs one shard on the session's pool and compiled-program cache.
// cmd/simd mounts it in both modes; tests drive it through httptest to
// stand up in-process workers. maxInsts > 0 rejects shards with a larger
// instruction budget, mirroring the coordinator endpoint's guard.
func WorkerHandler(sess *sim.Session, maxInsts int64) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+ShardsPath, func(w http.ResponseWriter, r *http.Request) {
		const maxShardSpecBytes = 1 << 20
		body, err := io.ReadAll(io.LimitReader(r.Body, maxShardSpecBytes))
		if err != nil {
			// A failed body read is a transport problem, not a judgment on
			// the spec. It must NOT be a 400: the coordinator maps 400 to
			// sim.ErrInvalidSpec and permanently fails the shard, whereas a
			// 500 is retried and failed over like any backend fault.
			wire.WriteError(w, http.StatusInternalServerError, fmt.Errorf("reading shard spec: %w", err))
			return
		}
		spec, err := sim.DecodeShardSpec(body)
		if err != nil {
			wire.WriteError(w, http.StatusBadRequest, err)
			return
		}
		if maxInsts > 0 && spec.Insts > maxInsts {
			wire.WriteError(w, http.StatusBadRequest,
				fmt.Errorf("%w: per-shard budget %d exceeds worker limit %d", sim.ErrInvalidSpec, spec.Insts, maxInsts))
			return
		}
		sh, err := sess.RunShard(r.Context(), *spec)
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, sim.ErrInvalidSpec) {
				status = http.StatusBadRequest
			}
			wire.WriteError(w, status, err)
			return
		}
		enc, err := sim.EncodeShard(sh)
		if err != nil {
			wire.WriteError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(enc)
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
// shape of rebalance-bench's -backends flag), rejecting empty and
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
