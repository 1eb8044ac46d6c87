"""The measuring process: a closed loop with one client, in one process.

Run by ``run.py`` as a fresh process per workload run, so that its peak RSS
covers the requests and nothing else::

    python3 perfbench/client.py JOB.json RESULT.json

Each request is one in-process call to ``polymin.cli.main`` (or to
``minimize.distinguishing_formula`` for explain requests), timed on its own.
Whole rounds run while the next one would end nearer to the time budget
than the last one did; every
output is then checked by the correctness gate, outside the timed region.
The gate never aborts the run: a failed check marks the request failed.
Timed set-ups of the workload run between requests (see :class:`SetUps`),
and so do readings of the host's speed (see ``speed.py``), which scale the
times of requests and set-ups alike.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from polymin import cli, minimize  # noqa: E402
from polymin import cell_poset, load_simplicial_model  # noqa: E402
from polymin.checker import sat  # bound now, so a traced run leaves it unwrapped  # noqa: E402
from polymin.logic import format_formula, is_eta_pure, node_count  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_REQUESTS = 100  # so that at least ten requests lie above p90
# Set-ups take this share of the busy time, at least SETUP_MIN of them.
SETUP_SHARE = 0.1
SETUP_MIN = 5


class SetUps:
    """Timed set-ups of the workload, spread between the requests.

    The host's speed changes by up to 1.8x over spells of seconds, so a
    burst of set-ups reads the speed of one spell.  Spread through the run
    instead, the set-ups see the same spells as the requests, and their
    times are scaled by the same readings of the host's speed.  Each starts
    from a collected heap and writes to its own directory, so the requests'
    inputs stay untouched; set-up time does not count towards the run's
    time budget.
    """

    def __init__(self, plan: dict, workdir: str):
        self.plan, self.workdir = plan, Path(workdir)
        self.times: list[float] = []
        self.starts: list[float] = []

    def run(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        gc.collect()
        t0 = time.perf_counter()
        workloads.setup(self.plan["workload"], self.plan["seed"], self.workdir, ROOT)
        self.times.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def due(self, busy: float) -> bool:
        return sum(self.times) < SETUP_SHARE * busy


class Gate:
    """Checks every request's outcome against its expectation."""

    def __init__(self, digests: dict | None, record: bool):
        self.digests = digests
        self.recorded: dict[str, str] | None = {} if record else None
        self.first: dict[str, str] = {}  # output id -> digest, for determinism
        self.round_results: dict[str, dict] = {}
        self.posets: dict[str, object] = {}

    def poset(self, path: str):
        if path not in self.posets:
            self.posets[path] = cell_poset(load_simplicial_model(Path(path).read_bytes()))
        return self.posets[path]

    def _same_as_first(self, ident: str, data: bytes) -> tuple[str, str | None]:
        sha = hashlib.sha256(data).hexdigest()
        if self.first.setdefault(ident, sha) != sha:
            return sha, f"{ident}: output differs from the first run of the same input"
        return sha, None

    def _digest(self, ident: str, data: bytes) -> str | None:
        sha, why = self._same_as_first(ident, data)
        if why:
            return why
        if self.recorded is not None:
            self.recorded[ident] = sha
        elif self.digests is not None and self.digests.get(ident) != sha:
            return f"{ident}: SHA-256 differs from the digest recorded for the default seed"
        return None

    def verify(self, req: dict, outcome: dict) -> str | None:
        """``None`` when the request met its expectation, else the reason."""
        try:
            return self._verify(req, outcome)
        except Exception as exc:  # a check that cannot run fails the request only
            return f"gate error: {type(exc).__name__}: {exc}"[:200]

    def _verify(self, req: dict, outcome: dict) -> str | None:
        exp = req["expect"]
        if outcome.get("raised"):
            return f"raised {outcome['raised']}"
        if req["kind"] == "explain":
            return self._verify_explain(req, outcome["formula"])
        rc, err = outcome["rc"], outcome["stderr"]
        if "Traceback" in err:
            return "traceback on stderr"
        if exp["type"] == "invalid":
            if rc != 2 or not err.startswith("error:"):
                return f"exit {rc} instead of 2 with an error message"
            return None
        if rc != 0:
            return f"exit {rc}: {err.strip()[:200]}"
        for path in req["outputs"]:
            if not Path(path).exists():
                return f"no output {path}"
        blobs = [Path(p).read_bytes() for p in req["outputs"]]
        for path, data in zip(req["outputs"], blobs):
            why = self._digest(f"{req['key']}/{Path(path).name}", data)
            if why:
                return why
        if exp["type"] == "check":
            return self._verify_check(req, blobs[0])
        return self._verify_minimize(exp, blobs)

    def _verify_check(self, req: dict, data: bytes) -> str | None:
        exp = req["expect"]
        doc = json.loads(data)
        results = doc.get("results", {})
        if list(results) != exp["saves"]:
            return f"saves {list(results)} instead of {exp['saves']}"
        for name, vector in results.items():
            if len(vector) != exp["cells"] or any(type(x) is not bool for x in vector):
                return f"save {name!r} is not a boolean vector over {exp['cells']} cells"
        self.round_results[req["key"]] = results
        if "same_bytes_as_file" in exp and data != Path(exp["same_bytes_as_file"]).read_bytes():
            return "output differs from the direct-route reference"
        if "same_results_as" in exp:
            direct = self.round_results.get(exp["same_results_as"], {})
            if {k: direct.get(k) for k in results} != results:
                return f"answers differ from {exp['same_results_as']} (direct route)"
        return None

    @staticmethod
    def _verify_minimize(exp: dict, blobs: list[bytes]) -> str | None:
        classes = json.loads(blobs[0])["classes"]
        if [c["members"] for c in classes] != exp["classes"]:
            return "classes differ from the abstract-route reference partition"
        if json.loads(blobs[1])["classes"] != classes:
            return "minimal model lists other classes than the classes file"
        return None

    def _verify_explain(self, req: dict, formula) -> str | None:
        model, a, b = req["argv"]
        text = "None" if formula is None else format_formula(formula)
        # no recorded digest: any correct witness passes, but it must not
        # change between runs of the same request
        _, why = self._same_as_first(req["key"], text.encode())
        if why:
            return why
        if req["expect"]["same_class"]:
            return None if formula is None else f"{a} and {b} share a class but got {text}"
        if formula is None:
            return f"no formula for {a} and {b}, which are in different classes"
        if not is_eta_pure(formula):
            return f"witness {text} is not eta-pure"
        ext = sat(self.poset(model), formula)
        if a not in ext or b in ext:
            return f"witness {text} does not hold at {a} and fail at {b}"
        return None


def execute(req: dict, gate: Gate, tracer) -> tuple[float, float, dict]:
    """Run one request; returns its start, wall time and outcome."""
    for path in req["outputs"]:
        Path(path).unlink(missing_ok=True)
    if req["kind"] == "explain":
        model, a, b = req["argv"]
        poset = gate.poset(model)
        root = tracer.begin(tracing.ROOT_EXPLAIN) if tracer else None
        t0 = time.perf_counter()
        try:
            outcome = {"formula": minimize.distinguishing_formula(poset, a, b)}
        except Exception as exc:  # a failed request, reported by the gate
            outcome = {"raised": f"{type(exc).__name__}: {exc}"[:200]}
        t1 = time.perf_counter()
        if tracer:
            tracer.end(root)
        return t0, t1 - t0, outcome
    err = io.StringIO()
    root = tracer.begin(tracing.ROOT_CLI) if tracer else None
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            outcome = {"rc": cli.main(req["argv"])}
        except SystemExit as exc:  # argparse rejects arguments this way
            outcome = {"rc": exc.code}
        except Exception as exc:  # a failed request, reported by the gate
            outcome = {"raised": f"{type(exc).__name__}: {exc}"[:200]}
        t1 = time.perf_counter()
    if tracer:
        tracer.end(root)
    outcome["stderr"] = err.getvalue()
    return t0, t1 - t0, outcome


def run_round(plan, gate, tracer, setups, host, rnd, log) -> tuple[float, float]:
    """One round; with a tracer each request runs untraced, then traced.

    Returns the untraced and traced busy time.  Without a tracer the host's
    speed is read before a request when a reading is due, and a set-up runs
    after it while set-ups are behind their share.  Log rows hold the
    request's start and unscaled time; :func:`scale_times` scales them.
    """
    gate.round_results.clear()
    busy = [0.0, 0.0]
    before = sum(r[2] for r in log)
    for req in plan["round"]:
        for traced in (False, True) if tracer else (False,):
            if traced:
                tracer.request = f"{rnd}/{req['key']}"
                tracer.install()
                try:
                    start, seconds, outcome = execute(req, gate, tracer)
                finally:
                    tracer.uninstall()
            else:
                if host and host.due():
                    host.read()
                start, seconds, outcome = execute(req, gate, None)
            busy[traced] += seconds
            why = gate.verify(req, outcome)
            if traced:
                tracer.settle()
                tracer.count("cli.output_bytes", sum(
                    Path(p).stat().st_size for p in req["outputs"] if Path(p).exists()))
                formula = outcome.get("formula")
                if formula is not None:
                    tracer.count("minimize.witness_nodes", node_count(formula))
            log.append([rnd, req["key"], seconds, req["cells"], req["size"],
                        req["expect"]["type"] != "invalid", why, traced, start])
        if setups and setups.due(before + busy[0]):
            setups.run()
    return busy[0], busy[1]


def scale_times(log: list, setups: SetUps, host: speed.HostSpeed) -> list[float]:
    """Scale every request time in ``log`` to the reference host speed, and
    return the set-up times so scaled.

    A row keeps its unscaled time in a last column, after its start.
    """
    for row in log:
        start, seconds = row[8], row[2]
        row[2] = seconds * host.scale(start, start + seconds)
        row.append(seconds)
    return [t * host.scale(s, s + t) for s, t in zip(setups.starts, setups.times)]


def main(job_path: str, result_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    plan = job["plan"]
    gate = Gate(job["digests"], job["record"])
    for req in plan["warmup"]:
        execute(req, gate, None)
    gc.collect()

    # each request of a traced run also runs untraced, right before, so
    # that the busy-time ratio of the two is the tracing overhead
    tracer = tracing.Tracer() if job["trace"] else None
    setups = None if tracer else SetUps(plan, job["setup_dir"])
    host = None if tracer else speed.HostSpeed()
    min_rounds = 1 if tracer else math.ceil(MIN_REQUESTS / len(plan["round"]))
    log: list = []
    plain = traced = 0.0
    cells_of: dict[str, int] = {}
    rounds = 0
    start = time.perf_counter()
    while True:
        busy = run_round(plan, gate, tracer, setups, host, rounds, log)
        plain, traced = plain + busy[0], traced + busy[1]
        for req in plan["round"]:
            cells_of[f"{rounds}/{req['key']}"] = req["cells"]
        rounds += 1
        elapsed = time.perf_counter() - start
        if host:
            elapsed -= sum(setups.times) + sum(host.took)
        if rounds >= min_rounds and elapsed * (rounds + 0.5) / rounds > job["seconds"]:
            break
    while setups and len(setups.times) < SETUP_MIN:
        host.read()
        setups.run()
    setup_times = []
    if host:
        host.read()
        setup_times = scale_times(log, setups, host)
    result = {"elapsed": elapsed, "requests": log, "recorded": gate.recorded,
              "setups": setup_times, "setups_unscaled": setups.times if setups else []}
    if tracer:
        requests = sum(1 for row in log if row[7])
        result["per_layer"] = tracing.per_layer(tracer.spans, tracer.counts, requests,
                                                traced / plain - 1)
        result["stages"] = tracing.stage_table(tracer.spans, cells_of)
        Path(job["spans_out"]).write_text(json.dumps(
            [[s.name, s.start, s.end, s.parent, s.request] for s in tracer.spans]) + "\n",
            encoding="utf-8")
    Path(result_path).write_text(json.dumps(result) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:3])
