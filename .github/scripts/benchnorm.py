"""Normalize sim/v1 reports for the CI smokes.

Two sweeps of one spec must agree on every simulated counter whichever
way they ran (local pool, dispatched, through a coordinator, cache-warm,
replayed, degraded); only timing and provenance fields may move. norm()
blanks exactly those fields — the ones (*sim.Report).Stripped clears —
so smokes compare the rest with ==.

Used from ci.yml as: PYTHONPATH=.github/scripts python3 - <<EOF ... EOF
"""

import copy
import json


def norm(report):
    """report is a path to a sim/v1 JSON file or an already-loaded dict."""
    if isinstance(report, str):
        with open(report) as f:
            r = json.load(f)
    else:
        r = copy.deepcopy(report)
    assert r["schema"] == "sim/v1", r["schema"]
    r["wall_ns"] = 0
    r["workers"] = 0
    for s in r["shards"]:
        s["elapsed_ns"] = 0
        s.pop("cached", None)
    return r
