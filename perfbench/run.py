"""The repository benchmark: one seeded closed-loop run of one serving workload.

    python3 perfbench/run.py --workload zoo_honest --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke            # every workload, tiny, names + oracle

A run sets the tier up ``Workload.setups`` times (``setup_s`` is the median),
sends one warm-up burst, then loops for ``--seconds``: one client submits a
burst of B requests, calls ``process()``, checks every verdict against the
oracle and only then sends the next burst.  It always completes the exact
window (the first ``window_bursts`` bursts), over which verdict shares, gas
and every per-layer count are computed, so those repeat exactly for a seed;
a run whose exact values differ from an earlier run of the same code and seed
is flagged ``correct: false``.

``--trace 0`` reports the gated end-to-end metrics (and prints the client's
throughput and latency, which are reported per layer, never gated: wall-clock
time on a shared host drifts more than any bound); ``--trace 1`` records spans
(setup and its phases, each burst, submit and process, with counter deltas on
each process span), writes them to ``perfbench/out/`` and reports the
per-layer metrics.  Layers are measured from outside only: the benchmark times
the calls it makes and reads counters the tiers already expose.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="each workload at tiny size: oracle and metric names only")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: the program source (src/repro) is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from bench import OUT, WORKLOADS, check_repeat, report, run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]

    if args.smoke:
        names = [args.workload] if args.workload else sorted(WORKLOADS)
        ok = True
        fingerprints = {}
        for name in names:
            result = run(name, args.seed, 0.0, True, window_bursts=2, setups=1)
            fingerprints[name] = result["fingerprint"]
            report(result, {**result["end_to_end"], **result["client"]}, units, [])
            missing = sorted(set(e2e_names) - set(result["end_to_end"])) + \
                sorted(set(layer_names) - set(result["per_layer"]))
            extra = sorted(set(result["per_layer"]) - set(layer_names))
            passed = (result["conserved"] and result["errors"] == 0
                      and not missing and not extra)
            print(f"smoke {name}: {'ok' if passed else 'FAILED'}"
                  f"{' missing ' + str(missing) if missing else ''}"
                  f"{' undeclared ' + str(extra) if extra else ''}")
            ok = ok and passed
        if {"fleet_cached", "cluster_cached"} <= set(fingerprints):
            same = fingerprints["fleet_cached"] == fingerprints["cluster_cached"]
            print(f"smoke fleet/cluster verdict fingerprints {'match' if same else 'DIFFER'}")
            ok = ok and same
        return 0 if ok else 1

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    differing = check_repeat(args.workload, args.seed, result["exact"])
    if args.trace:
        metrics = {key: result["per_layer"][key] for key in layer_names}
        shown = metrics
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(result["spans"]))
    else:
        metrics = {key: result["end_to_end"][key] for key in e2e_names}
        shown = {**metrics, **result["client"]}
    report(result, shown, units, differing)
    print(json.dumps({
        "correct": bool(result["conserved"] and not differing),
        "attempted": result["attempted"],
        "failed": result["errors"],
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
