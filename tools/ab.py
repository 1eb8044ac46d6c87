"""A/B runs of the benchmark on two source trees, alternating, pair by pair.

    python3 tools/ab.py --base REV --head REV-or-DIR --workload W --pairs N --seed S

Run from inside the repository.  A revision is checked out with
``git archive`` into a temporary directory, which is removed afterwards; a
``--head`` directory is run as it is, so it must hold ``src/``,
``perfbench/`` and ``tests/fixtures/`` (``selfcheck-explain`` reads the
fixtures).  Each pair runs both sides' own
``perfbench/run.py`` for the workload at the seed, for ``run_seconds`` from
``BENCHMARK.json`` with tracing off, each in a fresh process, the base first
in even pairs and the head first in odd ones.

Per end-to-end metric the table gives the base median and quartiles, the
head median and the pairs the head wins (ties count for neither side), read
in the metric's direction from ``BENCHMARK.json``.  ``gain`` marks a head
that wins at least nine tenths of all pairs run and whose median beats the
base's by more than the base's interquartile range; ``over bound`` marks a
head median worse than the base median by more than the metric's bound.  A
run that exits non-zero, reads ``correct`` false or fails requests is named
on standard error, with the last line it wrote there; a run without metrics
counts for neither side.  Every run is written to
``BENCH_<workload>-seed<S>-<base>-<head>.json`` in the current directory,
each side named by its short commit hash, or a directory by its name; if
that file exists, nothing is run and the exit code is 2.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("base", "head")


def result_of(stdout: str) -> dict | None:
    """The result object on the last line of a run's standard output."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(pairs: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One row per end-to-end metric from ``pairs``, each ``{"base": result,
    "head": result}`` with results as ``perfbench/run.py`` prints them."""
    rows = []
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        value = {side: [(p[side] or {}).get("metrics", {}).get(name, {}).get("value")
                        for p in pairs] for side in SIDES}
        base = [v for v in value["base"] if v is not None]
        head = [v for v in value["head"] if v is not None]
        row = {"name": name, "unit": spec["unit"], "better": spec["better"],
               "bound": spec["bound"], "pairs": len(pairs), "wins": 0, "ties": 0,
               "base_q1": None, "base_median": None, "base_q3": None,
               "head_median": None, "gain": False, "over_bound": False}
        for b, h in zip(value["base"], value["head"]):
            if b is not None and h is not None:
                row["wins"] += (h < b) if lower else (h > b)
                row["ties"] += h == b
        if base and head:
            q1, median, q3 = quartiles(base)
            head_median = statistics.median(head)
            gap = (median - head_median) if lower else (head_median - median)
            row.update(base_q1=q1, base_median=median, base_q3=q3, head_median=head_median,
                       gain=10 * row["wins"] >= 9 * len(pairs) and gap > q3 - q1,
                       over_bound=-gap > spec["bound"] * abs(median))
        rows.append(row)
    return rows


def failure(run: dict) -> str | None:
    """Why a run counts as failed, or None."""
    result = run["result"]
    if run["returncode"] != 0:
        return f"exit code {run['returncode']}"
    if result is None:
        return "no result line"
    if result.get("correct") is not True:
        return "correct is false"
    if result.get("failed"):
        return f"{result['failed']} of {result.get('attempted')} requests failed"
    return None


def failed_line(pair: int, side: str, run: dict) -> str:
    """The console line naming a failed run, ending in its last standard-error line."""
    tail = [line for line in run.get("stderr_tail", []) if line.strip()]
    named = f"FAILED pair {pair} {side}: {failure(run)}"
    return f"{named}; stderr: {tail[-1]}" if tail else named


def table(rows: list[dict]) -> str:
    def num(x):
        return "-" if x is None else f"{x:.6g}"

    out = ["| metric | base q1 | base median | base q3 | head median | change | head wins | gain | over bound |",
           "|---|---:|---:|---:|---:|---:|---:|---|---|"]
    for r in rows:
        change = ("-" if r["base_median"] in (None, 0)
                  else f"{(r['head_median'] - r['base_median']) / r['base_median']:+.1%}")
        out.append(f"| {r['name']} ({r['unit']}, {r['better']}) | {num(r['base_q1'])} | "
                   f"{num(r['base_median'])} | {num(r['base_q3'])} | {num(r['head_median'])} | "
                   f"{change} | {r['wins']}/{r['pairs']} | {'yes' if r['gain'] else 'no'} | "
                   f"{'yes' if r['over_bound'] else 'no'} |")
    return "\n".join(out)


def git(*args: str, cwd: Path) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def checkout(rev: str, repo: Path, into: Path) -> Path:
    """A tree of ``rev``'s committed files under ``into``."""
    into.mkdir()
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=repo,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"error: git archive {rev} failed")
    return into


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    began = time.monotonic()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    run = {"returncode": done.returncode, "result": result_of(done.stdout),
           "wall_s": round(time.monotonic() - began, 3)}
    if failure(run):
        run["stderr_tail"] = done.stderr.splitlines()[-20:]
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="a revision")
    parser.add_argument("--head", required=True, help="a revision or a source directory")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    repo = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    bench = json.loads((repo / "BENCHMARK.json").read_text(encoding="utf-8"))
    described, names = {}, []
    for side in SIDES:
        rev = getattr(args, side)
        if side == "head" and Path(rev).is_dir():
            described[side] = {"dir": rev}
            names.append(Path(rev).resolve().name)
        else:
            described[side] = {"rev": git("rev-parse", rev, cwd=repo)}
            names.append(git("rev-parse", "--short", rev, cwd=repo))
    out = Path(f"BENCH_{args.workload}-seed{args.seed}-{names[0]}-{names[1]}.json")
    if out.exists():
        print(f"error: {out} exists; move it away to run again", file=sys.stderr)
        return 2
    temp = Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        trees = {}
        for side in SIDES:
            d = described[side]
            trees[side] = Path(d["dir"]).resolve() if "dir" in d else checkout(d["rev"], repo, temp / side)
        pairs, runs = [], []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                run = run_side(trees[side], args.workload, args.seed, bench["run_seconds"])
                runs.append({"pair": i, "side": side, "first": side == order[0], **run})
                if failure(run):
                    print(failed_line(i, side, run), file=sys.stderr)
                pair[side] = run["result"] if run["result"] and run["result"].get("metrics") else None
                print(f"pair {i} {side}: " + ", ".join(
                    f"{k} {v['value']:.6g}" for k, v in (pair[side] or {}).get("metrics", {}).items()),
                    file=sys.stderr)
            pairs.append(pair)
    finally:
        shutil.rmtree(temp, ignore_errors=True)

    rows = summarise(pairs, bench["end_to_end"])
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {bench['run_seconds']} s runs\n")
    print(table(rows))
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
        "run_seconds": bench["run_seconds"], "python": platform.python_version(),
        "machine": platform.machine(), "sides": described, "summary": rows,
        "failed": [{"pair": r["pair"], "side": r["side"], "why": failure(r)}
                   for r in runs if failure(r)],
        "runs": runs,
    }, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
