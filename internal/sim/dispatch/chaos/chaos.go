// Package chaos injects deterministic, seeded faults into the dispatch
// layer — the harness behind the chaos soak suite, and a reusable tool
// for drilling a coordinator against the failure modes the retry,
// failover, hedging, and partial-result machinery claims to absorb.
//
// A Schedule is a declarative, JSON-encodable fault plan: per-call
// probabilities for latency spikes, hangs, injected 5xx answers,
// connection drops, and corrupted or truncated payloads; a flapping
// window that takes the whole backend down periodically; and a poison
// list that fails specific shards permanently. An Injector draws every
// fault decision from a splitmix64 stream seeded by (schedule seed, call
// index), so a given call index always sees the same faults regardless of
// goroutine interleaving — reruns of a soak hit an identical fault plan
// even though the scheduler is free to order work differently.
//
// The package wraps the dispatch layer at two levels. Wrap decorates a
// dispatch.Backend, turning fault decisions into backend errors (the
// coordinator-visible shape of any worker failure). Transport decorates
// an http.RoundTripper, synthesizing wire-level faults — 503 responses,
// dropped connections, corrupted and short-read bodies — underneath a
// real HTTPBackend, so the full client decode path is exercised.
// CorruptDir attacks the third tier: it deterministically mangles a
// shardcache disk directory, which the checksummed disk format must
// degrade to misses, never to wrong results.
package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"rebalance/internal/clock"
	"rebalance/internal/sim"
	"rebalance/internal/sim/dispatch"
	"rebalance/internal/wire"
)

// Schedule is a declarative fault plan. All probabilities are per backend
// call in [0, 1] and are drawn independently in a fixed order, so the
// fault a given call suffers depends only on Seed and the call's index.
// The zero Schedule injects nothing.
type Schedule struct {
	// Seed keys the fault stream: two injectors with the same schedule
	// produce identical fault sequences, call index by call index.
	Seed uint64 `json:"seed"`
	// PLatency is the probability of a latency spike, drawn uniformly
	// from [LatencyMinMS, LatencyMaxMS] milliseconds and slept on the
	// injector's clock, context-aware: a cancelled call does not linger.
	PLatency     float64 `json:"p_latency,omitempty"`
	LatencyMinMS int     `json:"latency_min_ms,omitempty"`
	LatencyMaxMS int     `json:"latency_max_ms,omitempty"`
	// PHang blocks the call until its context is cancelled — the
	// hung-worker fault the dispatcher's per-call deadline exists to absorb.
	PHang float64 `json:"p_hang,omitempty"`
	// P5xx answers with an injected 503 (Transport) or the equivalent
	// backend error (Wrap).
	P5xx float64 `json:"p_5xx,omitempty"`
	// PDrop fails the call like a cut connection.
	PDrop float64 `json:"p_drop,omitempty"`
	// PCorrupt mangles the response payload so it no longer decodes;
	// PTruncate cuts the body short mid-read. Both must surface as
	// retryable backend failures, never as wrong results.
	PCorrupt  float64 `json:"p_corrupt,omitempty"`
	PTruncate float64 `json:"p_truncate,omitempty"`
	// FlapPeriod, in calls, makes the backend flap: call indices in every
	// other window of this length all fail fast, simulating a worker that
	// dies and comes back repeatedly. 0 disables flapping.
	FlapPeriod int `json:"flap_period,omitempty"`
	// Poison permanently fails the matching shards — the permanent fault
	// behind the exact-surviving-set soak: however many attempts the
	// dispatcher spends, a poisoned shard never completes here.
	Poison []PoisonKey `json:"poison,omitempty"`
}

// PoisonKey names shards to fail permanently: a {workload, seed} cell of
// the grid, optionally narrowed to one observer kind (empty matches any).
type PoisonKey struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Observer string `json:"observer,omitempty"`
}

func (p *PoisonKey) matches(spec sim.ShardSpec) bool {
	if p.Workload != spec.Workload || p.Seed != spec.Seed {
		return false
	}
	return p.Observer == "" || p.Observer == spec.Observer.Kind
}

// poisoned reports whether the schedule fails spec permanently.
func (in *Injector) poisoned(spec sim.ShardSpec) bool {
	for i := range in.sched.Poison {
		if in.sched.Poison[i].matches(spec) {
			return true
		}
	}
	return false
}

// Validate checks the schedule's ranges: probabilities in [0, 1], a
// coherent latency span, non-negative flap period, named poison entries.
func (s *Schedule) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"p_latency", s.PLatency}, {"p_hang", s.PHang}, {"p_5xx", s.P5xx},
		{"p_drop", s.PDrop}, {"p_corrupt", s.PCorrupt}, {"p_truncate", s.PTruncate},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("chaos: %s = %v outside [0, 1]", p.name, p.v)
		}
	}
	if s.LatencyMinMS < 0 || s.LatencyMaxMS < 0 {
		return fmt.Errorf("chaos: negative latency bound (%d, %d)", s.LatencyMinMS, s.LatencyMaxMS)
	}
	if s.LatencyMinMS > s.LatencyMaxMS {
		return fmt.Errorf("chaos: latency_min_ms %d > latency_max_ms %d", s.LatencyMinMS, s.LatencyMaxMS)
	}
	if s.PLatency > 0 && s.LatencyMaxMS == 0 {
		return errors.New("chaos: p_latency set with no latency_max_ms")
	}
	if s.FlapPeriod < 0 {
		return fmt.Errorf("chaos: negative flap_period %d", s.FlapPeriod)
	}
	for i := range s.Poison {
		if s.Poison[i].Workload == "" {
			return fmt.Errorf("chaos: poison entry %d has no workload", i)
		}
	}
	return nil
}

// DecodeSchedule parses and validates a Schedule from JSON, rejecting
// unknown fields so a typoed fault name cannot silently disable a drill.
func DecodeSchedule(data []byte) (*Schedule, error) {
	var s Schedule
	if err := wire.StrictUnmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("chaos: decoding schedule: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Injector turns a Schedule into per-call fault decisions. Safe for
// concurrent use: the only mutable state is the atomic call counter, and
// each call's decisions are a pure function of (seed, index).
type Injector struct {
	sched Schedule
	clk   clock.Clock
	calls atomic.Uint64
}

// New validates the schedule and returns its injector, whose latency faults
// sleep on clk — the clock the dispatcher under test runs on.
func New(s Schedule, clk clock.Clock) (*Injector, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Injector{sched: s, clk: clk}, nil
}

// Calls reports how many fault decisions have been drawn — a soak's
// evidence that the injector actually sat in the path.
func (in *Injector) Calls() uint64 { return in.calls.Load() }

// faults is one call's drawn fault set.
type faults struct {
	down     bool
	hang     bool
	drop     bool
	fivexx   bool
	corrupt  bool
	truncate bool
	latency  time.Duration
	mut      uint64 // randomness for corruption/truncation positions
}

// call reserves the next call index and draws its faults. Decisions are
// drawn in a fixed order from a stream keyed by (seed, index), so the
// fault plan is a pure function of the schedule — concurrent callers race
// only for indices, not for outcomes.
func (in *Injector) call() (uint64, faults) {
	idx := in.calls.Add(1) - 1
	s := &in.sched
	r := newFaultRand(s.Seed, idx)
	f := faults{
		down:     s.FlapPeriod > 0 && (idx/uint64(s.FlapPeriod))%2 == 1,
		hang:     r.hit(s.PHang),
		drop:     r.hit(s.PDrop),
		fivexx:   r.hit(s.P5xx),
		corrupt:  r.hit(s.PCorrupt),
		truncate: r.hit(s.PTruncate),
	}
	if r.hit(s.PLatency) {
		ms := s.LatencyMinMS
		if span := s.LatencyMaxMS - s.LatencyMinMS; span > 0 {
			ms += int(r.next() % uint64(span+1))
		}
		f.latency = time.Duration(ms) * time.Millisecond
	}
	f.mut = r.next()
	return idx, f
}

// flappedDown reports the flap state at the current call index without
// consuming one — the read probes use, so probe timing (which is
// scheduler-dependent) cannot shift the shard fault plan.
func (in *Injector) flappedDown() bool {
	fp := in.sched.FlapPeriod
	if fp <= 0 {
		return false
	}
	return (in.calls.Load()/uint64(fp))%2 == 1
}

// faultRand is a tiny deterministic PRNG (splitmix64) seeded per call
// index.
type faultRand struct{ state uint64 }

func newFaultRand(seed, idx uint64) *faultRand {
	// Offset by the splitmix64 increment so consecutive indices land in
	// decorrelated regions of the stream.
	return &faultRand{state: seed + (idx+1)*0x9e3779b97f4a7c15}
}

func (r *faultRand) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *faultRand) hit(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(r.next()>>11)/(1<<53) < p
}

func sleepCtx(ctx context.Context, clk clock.Clock, d time.Duration) error {
	t := clk.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Backend decorates a dispatch.Backend with injected faults. Every fault
// surfaces as an error — the only shape a backend fault can take at this
// layer — so the dispatcher's blame, retry, and failover logic sees
// exactly what a real flaky worker would produce.
type Backend struct {
	inner dispatch.Backend
	inj   *Injector
}

// Wrap decorates b with the injector's fault plan. Revival probes fail
// during flap-down windows and otherwise forward to b, so a flapping
// backend is re-admitted only when its window is up.
func Wrap(b dispatch.Backend, inj *Injector) dispatch.Backend {
	return &Backend{inner: b, inj: inj}
}

// Name implements dispatch.Backend, keeping the inner name so dispatcher
// diagnostics (Healthy, error text) stay recognizable.
func (b *Backend) Name() string { return b.inner.Name() }

// RunShards implements dispatch.Backend. One call draws one fault set: a
// call-level fault fails the call — every member — as the dead, hung or
// garbled worker it imitates would; a poisoned member fails alone, on every
// call, while its unit-mates run.
func (b *Backend) RunShards(ctx context.Context, specs []sim.ShardSpec) ([]sim.Outcome, error) {
	idx, f := b.inj.call()
	var fault error
	switch {
	case f.down:
		fault = fmt.Errorf("chaos: backend down (flap window, call %d)", idx)
	case f.hang:
		<-ctx.Done()
		return nil, ctx.Err()
	case f.drop:
		fault = fmt.Errorf("chaos: connection dropped (call %d)", idx)
	case f.fivexx:
		fault = fmt.Errorf("chaos: injected status 503 (call %d)", idx)
	case f.corrupt:
		fault = fmt.Errorf("chaos: corrupted response payload (call %d)", idx)
	case f.truncate:
		fault = fmt.Errorf("chaos: truncated response payload (call %d)", idx)
	}
	out := make([]sim.Outcome, len(specs))
	var send []sim.ShardSpec
	var at []int // send[k] is specs[at[k]]
	for i, spec := range specs {
		switch {
		case b.inj.poisoned(spec):
			out[i].Err = fmt.Errorf("chaos: poisoned shard {%s %s seed %d}", spec.Workload, spec.Observer.Kind, spec.Seed)
		case fault != nil:
			out[i].Err = fault
		default:
			send, at = append(send, spec), append(at, i)
		}
	}
	if len(send) == 0 {
		return out, nil
	}
	if f.latency > 0 {
		if err := sleepCtx(ctx, b.inj.clk, f.latency); err != nil {
			return nil, err
		}
	}
	res, err := b.inner.RunShards(ctx, send)
	if err != nil {
		return nil, err
	}
	for k, i := range at {
		out[i] = res[k]
	}
	return out, nil
}

// Probe implements dispatch.Backend. It deliberately consumes no call
// index: probes fire at scheduler-dependent times, and letting them
// advance the counter would make the shard fault plan depend on probe
// timing.
func (b *Backend) Probe(ctx context.Context) error {
	if b.inj.flappedDown() {
		return errors.New("chaos: backend down (flap window)")
	}
	return b.inner.Probe(ctx)
}

// maxChaosBody bounds the response bytes Transport buffers when mutating
// a payload; matches the dispatch client's own response bound.
const maxChaosBody = 16 << 20

// Transport decorates an http.RoundTripper with wire-level faults, for
// use as the Transport of the http.Client behind an HTTPBackend. Unlike
// Wrap, its corrupt and truncate faults really mangle response bytes, so
// the client's full decode-and-reject path is what turns them into
// retryable failures.
type Transport struct {
	inner http.RoundTripper
	inj   *Injector
}

// WrapTransport decorates rt (nil selects http.DefaultTransport).
func WrapTransport(rt http.RoundTripper, inj *Injector) *Transport {
	if rt == nil {
		rt = http.DefaultTransport
	}
	return &Transport{inner: rt, inj: inj}
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	idx, f := t.inj.call()
	ctx := req.Context()
	fail := func(err error) (*http.Response, error) {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, err
	}
	switch {
	case f.down:
		return fail(fmt.Errorf("chaos: dial %s: backend down (flap window, call %d)", req.URL.Host, idx))
	case f.hang:
		<-ctx.Done()
		return fail(ctx.Err())
	case f.drop:
		return fail(fmt.Errorf("chaos: connection dropped (call %d)", idx))
	}
	if f.latency > 0 {
		if err := sleepCtx(ctx, t.inj.clk, f.latency); err != nil {
			return fail(err)
		}
	}
	if f.fivexx {
		if req.Body != nil {
			req.Body.Close()
		}
		body := fmt.Sprintf(`{"error":"chaos: injected unavailability (call %d)"}`, idx)
		return &http.Response{
			Status:        "503 Service Unavailable",
			StatusCode:    http.StatusServiceUnavailable,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil || resp == nil || resp.Body == nil {
		return resp, err
	}
	if !f.corrupt && !f.truncate {
		return resp, nil
	}
	data, rerr := io.ReadAll(io.LimitReader(resp.Body, maxChaosBody))
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	if len(data) == 0 {
		resp.Body = io.NopCloser(bytes.NewReader(nil))
		return resp, nil
	}
	if f.corrupt {
		// Overwrite one byte with NUL rather than flipping a bit: the wire
		// record is plain JSON with no checksum, and a single bit flip
		// could land inside a counter digit — yielding a payload that still
		// decodes but answers a different result. A NUL is invalid anywhere
		// in JSON, so the client's strict decode is guaranteed to reject
		// the mutation and retry. (The disk cache tier is checksummed and
		// survives arbitrary flips; see CorruptDir.)
		data[f.mut%uint64(len(data))] = 0x00
		resp.Body = io.NopCloser(bytes.NewReader(data))
		return resp, nil
	}
	// Truncate: deliver a proper prefix, then fail the read like a cut
	// connection. Content-Length is left as served, which is exactly the
	// lie a dying peer tells.
	cut := int(f.mut % uint64(len(data)))
	resp.Body = &truncatedBody{r: bytes.NewReader(data[:cut])}
	return resp, nil
}

// truncatedBody yields its prefix and then an unexpected-EOF error, the
// read-side shape of a connection cut mid-body.
type truncatedBody struct{ r *bytes.Reader }

func (b *truncatedBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *truncatedBody) Close() error { return nil }

// CorruptBytes flips one bit of data in place at a position derived
// deterministically from mut. No-op on empty data.
func CorruptBytes(data []byte, mut uint64) {
	if len(data) == 0 {
		return
	}
	data[mut%uint64(len(data))] ^= 1 << ((mut >> 33) % 8)
}

// CorruptDir deterministically mangles every regular file under a
// shardcache disk directory — alternating (per file, keyed by seed and
// file name) between flipping one bit and truncating to a proper prefix —
// and returns how many files it touched. The checksummed disk format must
// turn every such entry into a miss-and-recompute, never a wrong result;
// the chaos soak asserts exactly that.
func CorruptDir(dir string, seed uint64) (int, error) {
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if len(data) == 0 {
			return nil
		}
		h := fnv.New64a()
		h.Write([]byte(d.Name()))
		r := newFaultRand(seed, h.Sum64())
		mut := r.next()
		if mut&1 == 0 {
			CorruptBytes(data, mut)
		} else {
			data = data[:int(mut%uint64(len(data)))]
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		n++
		return nil
	})
	return n, err
}
