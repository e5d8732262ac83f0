# Sourced by the multi-process smokes in .github/workflows/ci.yml (each
# `run:` step is its own shell): one way to build the two binaries, one way
# to start a simd and wait for it, one way to catch a sweep mid-flight, one
# cleanup. Everything talks to 127.0.0.1 only, so a smoke runs unchanged on
# a developer machine.

SMOKE_PIDS=""

# build_bins builds both entrypoints to /tmp/simd and /tmp/rbench.
build_bins() {
  go build -o /tmp/simd ./cmd/simd
  go build -o /tmp/rbench ./cmd/rebalance-bench
}

# start_simd <port> [flags...] starts /tmp/simd on 127.0.0.1:<port> in the
# background, waits (up to 10 s) until it answers /healthz, and leaves its
# PID in SIMD_PID for steps that kill one daemon by hand.
start_simd() {
  port=$1
  shift
  /tmp/simd -addr "127.0.0.1:$port" "$@" &
  SIMD_PID=$!
  SMOKE_PIDS="$SMOKE_PIDS $SIMD_PID"
  for i in $(seq 1 50); do
    curl -sf "http://127.0.0.1:$port/healthz" > /dev/null && return 0
    sleep 0.2
  done
  echo "smokelib: simd on port $port never answered /healthz" >&2
  return 1
}

# await_mid_sweep <port> <tenant> returns once the tenant's newest sweep on
# the front door at <port> is running with some shards landed and some not,
# so a kill that follows lands mid-sweep.
await_mid_sweep() {
  python3 - "$1" "$2" <<'EOF'
import json, sys, time, urllib.request
url = f"http://127.0.0.1:{sys.argv[1]}/v1/sweeps?tenant={sys.argv[2]}"
for _ in range(1200):
    with urllib.request.urlopen(url) as r:
        sweeps = json.load(r)["sweeps"]
    if sweeps and sweeps[0]["state"] == "running":
        p = sweeps[0]["progress"]
        if 0 < p["done_shards"] < p["total_shards"]:
            sys.exit(0)
    time.sleep(0.05)
sys.exit(f"smokelib: no sweep of tenant {sys.argv[2]} was seen mid-flight")
EOF
}

# stop_all kills every daemon start_simd launched; it runs when the step's
# shell exits, pass or fail.
stop_all() {
  kill $SMOKE_PIDS 2>/dev/null || true
}
trap stop_all EXIT
