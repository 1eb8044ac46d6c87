"""Outside-in benchmark of the polymin pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The run sets up the workload once to write its inputs, then
starts a fresh measuring process (``client.py``) that runs whole rounds of
requests for about ``--seconds`` seconds, times further set-ups between
them (their median is ``setup_s``), scales every time to a reference host
speed (see ``speed.py``), checks every output, and reports back.  With ``--trace 0`` the last line of standard
output holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run, and the spans go to ``.perfbench-out/``.
Progress, failures and the per-size stage table go to standard error.

``--record-digests`` (default seed only) stores the SHA-256 of every output
in ``perfbench/digests.json``; later runs at the default seed must match.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
OUT = ROOT / ".perfbench-out"
DEFAULT_SEED = 1
RUN_LIMIT_S = 170  # a run must end within 180 s


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def boundary_warnings(rows: list[list]) -> list[str]:
    """Size-class boundaries within 5% of p50 or p90.

    Classes are ordered by their median latency; a boundary sits at the
    share of requests in the classes below it.
    """
    by_size: dict[str, list[float]] = {}
    for r in rows:
        by_size.setdefault(r[4], []).append(r[2])
    ordered = sorted(by_size.values(), key=statistics.median)
    out = []
    below = 0
    for latencies in ordered[:-1]:
        below += len(latencies)
        share = below / len(rows)
        out += [f"a size-class boundary at {share:.0%} of requests is near p{q}"
                for q in (50, 90) if abs(share - q / 100) < 0.05]
    return out


def end_to_end(rows: list[list], setup_s: float, rss_kb: int,
               col: int = 2) -> dict[str, tuple[float, str]]:
    """The metrics from request times in column ``col``: 2 holds them
    scaled to the reference host speed, 9 unscaled."""
    latencies = [r[col] for r in rows]
    return {
        "setup_s": (setup_s, "s"),
        "throughput_cells_per_s": (sum(r[3] for r in rows) / sum(latencies), "cells/s"),
        "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    began = time.monotonic()

    if not (ROOT / "src" / "polymin" / "__init__.py").is_file():
        print(f"error: no polymin sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    if args.record_digests and args.seed != DEFAULT_SEED:
        print(f"error: digests are recorded for seed {DEFAULT_SEED} only", file=sys.stderr)
        return 1
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    os.chdir(ROOT)  # request paths are relative, so outputs name the same files everywhere
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 1

    work = OUT.relative_to(ROOT) / "work" / args.workload
    # the plan's set-up is untimed: it pays the imports; the measuring
    # process times further set-ups, spread between its requests
    shutil.rmtree(work, ignore_errors=True)
    plan = workloads.setup(args.workload, args.seed, work, ROOT)

    digests = None
    if args.seed == DEFAULT_SEED and not args.record_digests and DIGESTS.exists():
        digests = json.loads(DIGESTS.read_text(encoding="utf-8")).get(args.workload)
    tag = f"{args.workload}-seed{args.seed}"
    job_path, result_path = work / "job.json", work / "result.json"
    job = {"plan": plan, "seconds": args.seconds, "trace": args.trace, "digests": digests,
           "record": args.record_digests, "spans_out": str(OUT / f"spans-{tag}.json"),
           "setup_dir": str(work.with_name(f"{args.workload}.setup"))}
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED="0")  # same set order, same work, every run
    try:
        subprocess.run([sys.executable, str(HERE / "client.py"), str(job_path), str(result_path)],
                       cwd=ROOT, env=env, stdout=sys.stderr, check=True,
                       timeout=RUN_LIMIT_S - (time.monotonic() - began))
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: the measuring process failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    rows = result["requests"]
    print(f"{len(rows)} requests, {sum(r[9 if len(r) > 9 else 2] for r in rows):.1f} s busy in "
          f"{result['elapsed']:.1f} s, {len(result['setups'])} set-ups; run took {time.monotonic() - began:.1f} s", file=sys.stderr)
    failures = Counter((r[1], r[6]) for r in rows if r[6])
    for (key, why), n in sorted(failures.items()):
        print(f"FAILED x{n} {key}: {why}", file=sys.stderr)
    attempted = len(rows)
    failed = sum(failures.values())
    correct = not any(r[6] for r in rows if r[5])  # invalid-input probes only count as failed

    if args.record_digests:
        table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
        table[args.workload] = dict(sorted(result["recorded"].items()))
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit, _, _ in tracing.PER_LAYER}
        stages = result["stages"]
        (OUT / f"stages-{tag}.json").write_text(json.dumps(stages, indent=1) + "\n",
                                                encoding="utf-8")
        print("cells  stage: median ms (calls)", file=sys.stderr)
        for cells, row in stages.items():
            cols = "  ".join(f"{k} {v[0] * 1e3:.1f} ({v[1]})" for k, v in row.items())
            print(f"{cells:>6}  {cols}", file=sys.stderr)
    else:
        for warning in boundary_warnings(rows):
            print(f"warning: {warning}", file=sys.stderr)
        e2e = end_to_end(rows, statistics.median(result["setups"]), rss_kb)
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in e2e.items()}
        raw = end_to_end(rows, statistics.median(result["setups_unscaled"]), rss_kb, 9)
        print("unscaled: " + ", ".join(f"{name} {v:.6g} {unit}" for name, (v, unit)
                                       in raw.items() if name != "peak_rss_mb"),
              file=sys.stderr)
        print(f"failed_frac {failed / attempted:.4f} 1 ({failed} of {attempted})",
              file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
