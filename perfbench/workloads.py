"""The workloads: what each round of requests holds, and its references.

``setup(name, seed, workdir, root)`` writes every input file of the workload
under ``workdir`` and returns a JSON-ready plan: the warm-up requests and the
requests of one round, which every round repeats.  A request is a dict:

- ``key``: unique name within the round;
- ``kind``: ``"cli"`` (argv for ``polymin.cli.main``) or ``"explain"``
  (``[model, a, b]`` for ``minimize.distinguishing_formula``);
- ``cells``: input cells, the unit of throughput;
- ``size``: the size class, used to keep class boundaries off p50 and p90;
- ``outputs``: files the request writes;
- ``expect``: what the correctness gate checks (see ``client.Gate.verify``).

Reference answers are computed here, once per set-up, so that their cost
shows in ``setup_s`` and not in request latency.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import gen

FIXTURES = ("segment3", "triangle_abc", "strip4")


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _abstract_classes(doc: str) -> list[list[str]]:
    """Reference classes: same-valuation components plus strong bisimilarity,
    pulled back to cells, each class in canonical cell order."""
    from polymin import bisim, cell_poset, load_simplicial_model

    p = cell_poset(load_simplicial_model(doc))
    lts, components = bisim.encode_abstract(p)
    part = bisim.pull_back(bisim.strong_partition(lts), components)
    return [p.sorted_elements(c) for c in part.classes]


def _saves(script: str) -> list[str]:
    return [line.split('"')[1] for line in script.splitlines() if line.startswith("save ")]


def _check(key, script, model, out, cells, size, *, minimal=False, self_check=False, **expect):
    argv = ["check", script, "--model", model, "-o", out]
    argv += ["--on-minimal"] * minimal + ["--self-check"] * self_check
    saves = _saves(Path(script).read_text(encoding="utf-8"))
    return {"key": key, "kind": "cli", "argv": argv, "cells": cells, "size": size,
            "outputs": [out], "expect": {"type": "check", "saves": saves, "cells": cells, **expect}}


def _minimize(key, model, outdir, cells, size, classes, *, self_check=False):
    stem = Path(model).stem
    argv = ["minimize", model, "-o", outdir] + ["--self-check"] * self_check
    return {"key": key, "kind": "cli", "argv": argv, "cells": cells, "size": size,
            "outputs": [f"{outdir}/{stem}.classes.json", f"{outdir}/{stem}.minmodel.json"],
            "expect": {"type": "minimize", "classes": classes}}


def _explain(key, model, a, b, cells, size, same_class):
    return {"key": key, "kind": "explain", "argv": [model, a, b], "cells": cells,
            "size": size, "outputs": [], "expect": {"type": "explain", "same_class": same_class}}


def _warmup(wd: Path) -> list[dict]:
    """Untimed requests that import and exercise every code path once."""
    doc = gen.grid_document(2, "warmup")
    model = _write(wd / "warmup.json", doc)
    script = _write(wd / "warmup.txt", gen.grid_script("warmup", 4))
    eta = _write(wd / "warmup-eta.txt", gen.grid_script("warmup", 2, gen.ETA_PURE_KINDS))
    cells = gen.grid_cells(2)
    classes = _abstract_classes(doc)
    return [
        _check("check", script, model, str(wd / "warmup.out"), cells, "warmup"),
        _minimize("minimize", model, str(wd / "warmup.min"), cells, "warmup", classes),
        _check("minimal", eta, model, str(wd / "warmup.min.out"), cells, "warmup", minimal=True),
        _explain("explain", model, classes[0][0], classes[0][0], cells, "warmup", True),
    ]


# -- grid-check -----------------------------------------------------------------

# Small grids of every n from 10 to 22 (641 to 2,993 cells, 35 to 190 ms a
# request): p50 and p90 fall within a smooth spread of costs, so a slow spell
# of the host moves them in proportion instead of making them jump.
GRID_CHECK_SMALL_NS = tuple(range(10, 23))
GRID_CHECK_SMALL_PER_ROUND = 49
GRID_CHECK_SAVE_COUNTS = (4, 5, 6, 7, 8)


def _grid_check(seed, wd: Path, root: Path) -> list[list[dict]]:
    scripts = [
        _write(wd / f"s{k}.txt", gen.grid_script(f"{seed}.{k}", n))
        for k, n in enumerate(GRID_CHECK_SAVE_COUNTS)
    ]
    big = _write(wd / "g64.json", gen.grid_document(64, seed))
    # 1 of 50 requests is n=64, so p50 and p90 both fall among the small ones
    small = [_write(wd / f"g{n}.json", gen.grid_document(n, f"{seed}.{n}"))
             for n in GRID_CHECK_SMALL_NS]
    out = wd / "out"
    reqs = [_check("big", scripts[2], big, str(out / "big.json"),
                   gen.grid_cells(64), "n64")]
    for i in range(GRID_CHECK_SMALL_PER_ROUND):
        k = i % len(small)
        reqs.append(_check(f"small{i}", scripts[i % len(scripts)], small[k],
                           str(out / f"small{i}.json"),
                           gen.grid_cells(GRID_CHECK_SMALL_NS[k]), "small"))
    return [[r] for r in reqs]


# -- random-minimize ------------------------------------------------------------

RANDOM_PER_BIN = 10


def invalid_inputs(wd: Path) -> list[tuple[str, list[str]]]:
    """The malformed inputs of ROADMAP item 4, as (name, argv) pairs.

    Each must end with exit code 2 and a one-line ``error:`` message.
    """
    cell = {"vertices": ["a"], "atoms": ["p"]}
    docs = {
        "atoms-int": {"atoms": 5, "cells": [cell]},
        "geometry-list": {"atoms": ["p"], "cells": [cell], "geometry": [1]},
        "atoms-string": {"atoms": ["red"], "cells": [{"vertices": ["a"], "atoms": "red"}]},
        "vertices-string": {"atoms": ["p"], "cells": [
            {"vertices": ["A"], "atoms": ["p"]}, {"vertices": ["B"], "atoms": ["p"]},
            {"vertices": "AB", "atoms": ["p"]}]},
        "dash-vertex": {"atoms": ["p"], "cells": [{"vertices": ["a-b"], "atoms": ["p"]}]},
    }
    docs["deep-formula"] = {"atoms": ["p"], "cells": [cell]}
    scripts = dict.fromkeys(docs, 'let a = ap("p")\nsave "s" a\n')
    scripts["deep-formula"] = 'let a = ap("p")\nsave "deep" ' + "!" * 3000 + "a\n"
    out = []
    for name, doc in docs.items():
        model = _write(wd / f"invalid-{name}.json", json.dumps(doc) + "\n")
        script = _write(wd / f"invalid-{name}.txt", scripts[name])
        out.append((name, ["check", script, "--model", model, "-o",
                           str(wd / "out" / f"invalid-{name}.out.json")]))
    return out


def _random_minimize(seed, wd: Path, root: Path) -> list[list[dict]]:
    from polymin.simplicial import model_to_document, random_model

    out = wd / "out"
    groups = [[{"key": f"invalid.{name}", "kind": "cli", "argv": argv, "cells": 0,
                "size": "random", "outputs": [], "expect": {"type": "invalid"}}]
              for name, argv in invalid_inputs(wd)]
    for i, (args, model) in enumerate(gen.sweep(seed, RANDOM_PER_BIN, random_model)):
        doc = model_to_document(model)
        path = _write(wd / f"r{i}.json", doc)
        eta, direct = gen.random_scripts(args[0], list(model.atoms))
        eta_path = _write(wd / f"r{i}-eta.txt", eta)
        direct_path = _write(wd / f"r{i}-direct.txt", direct)
        cells = len(model.cells)
        size = "random"  # a continuous sweep: no size classes
        groups.append([
            _check(f"r{i}.direct", direct_path, path, str(out / f"r{i}-direct.json"),
                   cells, size),
            _minimize(f"r{i}.minimize", path, str(out / f"r{i}"), cells, size,
                      _abstract_classes(doc)),
            _check(f"r{i}.minimal", eta_path, path, str(out / f"r{i}-minimal.json"),
                   cells, size, minimal=True, same_results_as=f"r{i}.direct"),
        ])
    return groups


# -- selfcheck-explain ----------------------------------------------------------

# (n, distinguishable pairs explained per round).  The grids are the same for
# every seed: weak_pm_partition's cost moves 2.5x with the order of the cells,
# and its two requests are most of the busy time.
SELFCHECK_GRIDS = ((4, 11), (3, 0))
FIXTURE_PAIRS = 8
# Fixture requests run twice per round, so that about 65% of the requests
# are on fixtures (p50 falls among them) and p90 falls among the grid
# explain requests, below the two weak_pm_partition requests (4%).
FIXTURE_REPEATS = 2


def _pairs(doc: str, classes: list[list[str]], rng: random.Random, k: int):
    """Up to ``k`` same-valuation pairs in different classes, plus one pair
    inside a class when the model has one."""
    from polymin import cell_poset, load_simplicial_model

    p = cell_poset(load_simplicial_model(doc))
    cls = {w: i for i, c in enumerate(classes) for w in c}
    split = [(a, b) for i, a in enumerate(p.elements) for b in p.elements[i + 1:]
             if p.valuation_of(a) == p.valuation_of(b) and cls[a] != cls[b]]
    chosen = [(a, b, False) for a, b in rng.sample(split, min(k, len(split)))]
    same = [c for c in classes if len(c) > 1]
    if same:
        c = rng.choice(same)
        chosen.append((c[0], c[-1], True))
    return chosen


def _selfcheck_explain(seed, wd: Path, root: Path) -> list[list[dict]]:
    from polymin.cli import main

    out = wd / "out"
    rng = random.Random(f"selfcheck-explain:{seed}")
    models = []
    for name in FIXTURES:
        doc = (root / "tests" / "fixtures" / f"{name}.json").read_text(encoding="utf-8")
        atoms = json.loads(doc)["atoms"]
        bindings = "".join(f'let {a} = ap("{a}")\n' for a in atoms)
        script = bindings + "".join(
            f'save "e{k}" {gen.random_eta_formula(rng, 2, atoms)}\n' for k in range(2))
        models.append((name, doc, script, FIXTURE_PAIRS, "fixture", FIXTURE_REPEATS))
    for n, k in SELFCHECK_GRIDS:
        doc = gen.grid_document(n, "selfcheck", vary_rooms=False)
        script = gen.grid_script(f"{seed}.{n}", 3, gen.ETA_PURE_KINDS)
        models.append((f"g{n}", doc, script, k, "grid", 1))

    reqs = []
    for name, doc, script, k, size, repeats in models:
        model = _write(wd / f"{name}.json", doc)
        script_path = _write(wd / f"{name}.txt", script)
        classes = _abstract_classes(doc)
        cells = sum(len(c) for c in classes)
        ref = str(wd / f"{name}.direct.json")
        if main(["check", script_path, "--model", model, "-o", ref]) != 0:
            raise RuntimeError(f"direct reference check failed on {model}")
        pairs = _pairs(doc, classes, rng, k)
        for r in range(repeats):
            tag = f"{name}.{r}"
            reqs.append(_minimize(f"{tag}.minimize", model, str(out / tag), cells,
                                  size, classes, self_check=True))
            reqs.append(_check(f"{tag}.minimal", script_path, model,
                               str(out / f"{tag}-minimal.json"), cells, size,
                               minimal=True, self_check=True, same_bytes_as_file=ref))
            for j, (a, b, same) in enumerate(pairs):
                reqs.append(_explain(f"{tag}.explain{j}", model, a, b, cells, size, same))
    return [[r] for r in reqs]


WORKLOADS = {
    "grid-check": _grid_check,
    "random-minimize": _random_minimize,
    "selfcheck-explain": _selfcheck_explain,
}


def setup(name: str, seed: int, workdir: Path, root: Path) -> dict:
    """Write the workload's inputs and references; return its plan.

    The round runs its groups of requests in a seeded order, so that a slow
    spell of the host does not fall on one size class only; requests within
    a group keep their order.  Every round is the same, so the mix does not
    depend on how many rounds fit in a run.
    """
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    groups = WORKLOADS[name](seed, workdir, root)
    random.Random(f"order:{name}:{seed}").shuffle(groups)
    return {"workload": name, "seed": seed, "warmup": _warmup(workdir),
            "round": [req for group in groups for req in group]}
