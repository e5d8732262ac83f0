package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
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

// appendMemberError appends the record of a member that failed, in place
// of its shard: {"error": its message, "invalid": true for an unrunnable
// spec, omitted otherwise}.
func appendMemberError(b []byte, err error) []byte {
	b = wire.AppendString(append(b, `{"error":`...), err.Error())
	if errors.Is(err, sim.ErrInvalidSpec) {
		b = append(b, `,"invalid":true`...)
	}
	return append(b, '}')
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

// decodeAnswer reads a worker's 200 body against the specs it answers, in
// one pass of the record scanner: one outcome per spec — the shard asked
// for, or the member's own failure — or the error of an answer that is not
// exactly that (wrong length, a record that is neither, a shard answering
// another spec), which is the worker's failure and never a member's.
func decodeAnswer(data []byte, specs []sim.ShardSpec, cfgs []sim.ObserverConfig) ([]sim.Outcome, error) {
	sc := wire.NewScanner(data)
	out := make([]sim.Outcome, len(specs))
	k := 0
	for sc.Open('['); sc.More() && k < len(specs); k++ {
		// A member's failure in place of its shard: {"error", "invalid"}.
		if rec := *sc; rec.Open('{').Field("error") {
			*sc = rec
			msg := sc.String()
			invalid := sc.Field("invalid") && sc.Bool()
			if sc.Close('}'); msg == "" {
				sc.Fail(errors.New("a member error without a message"))
			}
			if out[k].Err = errors.New(msg); invalid {
				out[k].Err = fmt.Errorf("%w: worker rejected shard: %s", sim.ErrInvalidSpec, msg)
			}
			continue
		}
		var err error
		if out[k].Shard, err = sim.ScanShard(sc, specs[k], cfgs[k]); err != nil {
			return nil, err
		}
	}
	switch {
	case sc.Err() != nil:
	case k < len(specs):
		return nil, fmt.Errorf("answered %d records for %d shards", k, len(specs))
	case sc.More():
		return nil, fmt.Errorf("answered more than %d records for %d shards", k, len(specs))
	}
	if err := sc.Close(']').End(); err != nil {
		return nil, fmt.Errorf("decoding answer: %w", err)
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
// compiled-program cache, as sess.RunShards plans it. cmd/simd mounts it
// only on a -worker (a server without a sweep coordinator); tests drive it
// through httptest to stand up in-process workers. maxInsts > 0 rejects
// arrays holding a larger instruction budget, mirroring the front door's
// guard.
func WorkerHandler(sess *sim.Session, maxInsts int64) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+ShardsPath, func(w http.ResponseWriter, r *http.Request) {
		// A failed read that is not an oversize body is ReadBody's 500, not
		// a 400: the coordinator maps 400 to sim.ErrInvalidSpec and fails
		// the shards for good, whereas a 500 is retried and failed over.
		body, ok := wire.ReadBody(w, r, maxShardSpecBytes)
		if !ok {
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
		// The answer is appended into one buffer, record after record.
		ans := append(make([]byte, 0, 512*len(out)), '[')
		for i := range out {
			if i > 0 {
				ans = append(ans, ',')
			}
			err := out[i].Err
			if err == nil {
				var rec []byte
				if rec, err = sim.AppendShard(ans, out[i].Shard); err == nil {
					ans = rec
				}
			}
			if err != nil {
				ans = appendMemberError(ans, err)
			}
		}
		ans = append(ans, ']')
		// The announced length lets the front door read the answer into one
		// buffer of its size (see wire.Do).
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(ans)))
		_, _ = w.Write(ans)
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

// DefaultClient returns an http.Client suitable for shard traffic from a
// front door with the given workers: no overall timeout (shards
// legitimately run for a while, and the response header only arrives when
// the shard finishes; cancellation flows through the request context) but
// a bounded connect phase so a dead worker fails fast instead of hanging a
// dispatcher slot. It keeps 2 x workers idle connections per worker: each
// unit holds one of the workers slots and makes one call at a time, plus
// at most one hedge, so every call finds a connection to reuse.
func DefaultClient(workers int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			IdleConnTimeout:     90 * time.Second,
			MaxIdleConnsPerHost: 2 * workers,
		},
	}
}
