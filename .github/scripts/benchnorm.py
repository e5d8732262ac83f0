"""Normalize rebalance-bench/v1 reports for the CI smokes.

Two sweeps of one spec must agree on every simulated counter whichever
way they ran (local pool, dispatched, cache-warm, replayed, degraded);
only timing and provenance fields may move. norm() loads a report and
blanks exactly those fields, so smokes compare the rest with ==.

Used from ci.yml as: PYTHONPATH=.github/scripts python3 - <<EOF ... EOF
"""

import json


def norm(path):
    r = json.load(open(path))
    for s in r["shards"]:
        s["elapsed_ns"] = 0
        s["minsts_per_sec"] = 0
    for a in r["aggregates"]:
        a["mean_minsts_per_sec"] = 0
    for k in ("wall_ns", "sweep_minsts_per_sec", "workers", "go_version", "gomaxprocs"):
        r[k] = 0
    for k in ("dispatched", "per_worker_minsts_per_sec"):
        r.pop(k, None)
    return r
