package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"rebalance/internal/sim"
	"rebalance/internal/sim/sweep"
	"rebalance/internal/wire"
)

// maxCoordRespBytes bounds coordinator response bodies. Result reports
// scale with the grid, so the bound matches the dispatch layer's shard
// ceiling rather than the tiny spec/status bodies.
const maxCoordRespBytes = 64 << 20

// sweepStatus mirrors simd's sweep view byte for byte: the
// coordinator's status snapshot plus the incremental shard results the
// GET endpoint attaches. Decoding it strictly means the bench client
// fails loudly the moment the coordinator's wire surface drifts,
// instead of silently ignoring fields.
type sweepStatus struct {
	sweep.Status
	ShardsSoFar json.RawMessage `json:"shards_so_far"`
}

// runCoordinatorSweep executes one sweep through a simd coordinator's
// async API: submit the spec under the tenant, poll the sweep's progress
// at the given interval, and fetch and decode the final report once the
// sweep lands, logging submission and progress to log. The decoded report
// re-marshals to the bytes the coordinator served. Cancellation of ctx
// abandons the sweep and attempts a best-effort DELETE so the coordinator
// stops working on a sweep nobody will collect.
func runCoordinatorSweep(ctx context.Context, base, tenant string, spec *sim.Spec, poll time.Duration, log io.Writer) (*sim.Report, error) {
	base = strings.TrimRight(base, "/")
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("marshalling spec: %w", err)
	}
	submitURL := base + "/v1/sweeps?tenant=" + url.QueryEscape(tenant)
	data, status, err := coordDo(ctx, http.MethodPost, submitURL, body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusAccepted {
		return nil, coordError("submitting sweep", status, data)
	}
	var st sweepStatus
	if err := wire.StrictUnmarshal(data, &st); err != nil || st.ID == "" {
		return nil, fmt.Errorf("coordinator submit response is not a sweep status: %v (%s)", err, data)
	}
	fmt.Fprintf(log, "rebalance-bench: sweep %s submitted (%d shards) to %s as tenant %q\n",
		st.ID, st.Progress.TotalShards, base, tenant)

	statusURL := base + "/v1/sweeps/" + st.ID
	rep, err := awaitSweep(ctx, statusURL, st.ID, poll, log)
	if err != nil && ctx.Err() != nil {
		// Nobody will collect the result; ask the coordinator to stop. ctx
		// is already dead, so the DELETE gets its own bounded one: a dead
		// coordinator must not hang the exit.
		dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _, _ = coordDo(dctx, http.MethodDelete, statusURL, nil)
		return nil, ctx.Err()
	}
	return rep, err
}

// awaitSweep polls the sweep at statusURL — at once, then every poll —
// until it is terminal, and returns the report of a done one.
func awaitSweep(ctx context.Context, statusURL, id string, poll time.Duration, log io.Writer) (*sim.Report, error) {
	lastDone := -1
	for {
		data, status, err := coordDo(ctx, http.MethodGet, statusURL, nil)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, coordError("polling sweep "+id, status, data)
		}
		var st sweepStatus
		if err := wire.StrictUnmarshal(data, &st); err != nil {
			return nil, fmt.Errorf("decoding sweep status: %w", err)
		}
		if st.Progress.DoneShards != lastDone {
			lastDone = st.Progress.DoneShards
			fmt.Fprintf(log, "rebalance-bench: sweep %s: %s, %d/%d shards (%d cached)\n",
				id, st.State, st.Progress.DoneShards, st.Progress.TotalShards, st.Progress.CachedShards)
		}
		switch st.State {
		case sweep.StateDone:
			data, status, err := coordDo(ctx, http.MethodGet, statusURL+"/result", nil)
			if err != nil {
				return nil, err
			}
			if status != http.StatusOK {
				return nil, coordError("fetching sweep "+id+" result", status, data)
			}
			return sim.DecodeReport(data)
		case sweep.StateFailed, sweep.StateCancelled:
			return nil, fmt.Errorf("sweep %s landed %s: %s", id, st.State, st.Error)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// coordDo is one coordinator round trip. HTTP-level failures are the
// caller's to map with coordError, which understands the error envelope.
func coordDo(ctx context.Context, method, u string, body []byte) ([]byte, int, error) {
	return wire.Do(ctx, http.DefaultClient, method, u, body, maxCoordRespBytes)
}

// coordError shapes a non-2xx coordinator response into an error, using
// the JSON error envelope's message when the body carries one.
func coordError(doing string, status int, body []byte) error {
	return fmt.Errorf("%s: coordinator status %d: %s", doing, status, wire.ErrorMessage(body))
}
