"""Stage times and traced memory of the pipeline, in process, as markdown tables.

    PYTHONPATH=src:tests python tools/stages.py

Run from the repository's root; it takes no arguments.  The collector is off
throughout.  :data:`MODELS` names the models and the tables that run each.
"""

import gc
import random
import time
import tracemalloc

from families import corridor_document, gen, kuhn3d_document
from polymin import bisim, cell_poset, check_script, distinguishing_formula, minimal_model, minimize
from polymin import load_simplicial_model, parse_script, random_model
from polymin.jsontext import json_text
from polymin.simplicial import model_to_document


# name: (its tables, of load minimise certify witness pairs check peaks; a function making
# its documents; pairs it witnesses before random ones, as the pair a corridor's last round
# splits)
MODELS = {
    **{f"grid {n}": ("load", lambda n=n: [gen.grid_document(n, 1)], ()) for n in (13, 16, 22)},
    "grid 64": (
        "load minimise certify witness check peaks", lambda: [gen.grid_document(64, 1)], ()),
    "corridor 1000": ("minimise witness", lambda: [corridor_document(1000)], (("x0y0", "x2y0"),)),
    "kuhn3d 10": ("load minimise certify check", lambda: [kuhn3d_document(10, 1)], ()),
    "random-minimize sweep (50 models)": (
        "load", lambda: [model_to_document(m) for _, m in gen.sweep(1, 10, random_model)], ()),
    "grid 8": ("pairs", lambda: [gen.grid_document(8, 1)], ()),
}


def best_of(runs, step, fresh=tuple):
    """``step(*fresh())``'s last result and least time in ``runs`` calls, each after an untimed ``fresh()``."""
    best = float("inf")
    for _ in range(runs):
        args = fresh()
        start = time.perf_counter()
        result = step(*args)
        best = min(best, time.perf_counter() - start)
    return result, best


def duration(seconds):
    """Seconds from 0.1 s up and milliseconds below, so no step reads 0."""
    return f"{seconds:.3f} s" if seconds >= 0.1 else f"{seconds * 1e3:.3g} ms"


def table(title, note, headers, rows):
    """A markdown table under a heading and a note, its first column aligned left."""
    print(f"### {title}\n\n{note}\n" if note else f"### {title}\n")
    print(f"| {headers} |\n|---" + "|---:" * headers.count("|") + "|")
    print("".join(f"| {' | '.join(row)} |\n" for row in rows))


def each(report, documents):
    """Name, documents, tables and pairs of every model in :data:`MODELS` that ``report`` runs."""
    return [(name, documents[name], tables, pairs)
            for name, (tables, _, pairs) in MODELS.items() if report in tables.split()]


def load_times(documents):
    rows = []
    for name, texts, _, _ in each("load", documents):
        texts = [d.encode() for d in texts]
        loaded, load = best_of(5, lambda: [load_simplicial_model(t) for t in texts])
        _, poset = best_of(5, lambda: [cell_poset(m) for m in loaded])
        _, both = best_of(5, lambda: [cell_poset(load_simplicial_model(t)) for t in texts])
        rows.append((name, f"{sum(len(m.cells) for m in loaded):,}", duration(load), duration(poset),
                     duration(both)))
    table("In-process `load_simplicial_model` and `cell_poset`, best of 5, collector off",
          "The loader looks up every face and `cell_poset` only inverts the down-sets; "
          "compare versions by the two stages' sum.",
          "model | cells | load | cell_poset | load + cell_poset", rows)


def certificate(mm):
    quotient = bisim.branching_quotient(mm.source, mm.partition.block)
    assert quotient is not None and bisim.is_branching_minimal(quotient)
    assert minimize.rmin_via_quotient_d(quotient) == mm.kripke.succ


def minimise_times(documents):
    rows = []
    for name, [document], tables, _ in each("minimise", documents):
        loaded = load_simplicial_model(document)
        # a fresh poset a call, or every call after the first reads the first one's record
        mm, best = best_of(3, minimal_model, lambda: (cell_poset(loaded),))
        cert = aut = "—"
        if "certify" in tables.split():
            cert = duration(best_of(3, lambda: certificate(mm))[1])
            aut = duration(best_of(3, lambda: bisim.to_aut(bisim.encode_concrete(mm.source)))[1])
        rows.append((name, f"{len(mm.source):,}", f"{len(mm.partition):,}", duration(best), cert, aut))
    table("In-process `minimal_model`, `--self-check` certificate and `.aut` text, best of 3, collector off",
          "The certificate is `branching_quotient`, `is_branching_minimal` and `rmin_via_quotient_d`.",
          "model | cells | classes | minimal_model | certificate | .aut", rows)


def witness_times(documents):
    rows = []
    for name, [document], _, given in each("witness", documents):
        loaded = load_simplicial_model(document)
        p = cell_poset(loaded)
        tracemalloc.start()
        record = minimize._refinement(p)
        size = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        nodes = best_of(1, lambda: record.build(len(record.parent) - 1))[1]
        del record, p
        mm, build = best_of(1, minimal_model, lambda: (cell_poset(loaded),))
        p, block, pairs, rng = mm.source, mm.partition.block, list(given), random.Random(0)
        assert len(set(p.valuations)) < len(mm.partition), f"{name} has no pair to witness"
        while len(pairs) < 20:
            i, j = rng.randrange(len(p)), rng.randrange(len(p))
            if p.valuations[i] == p.valuations[j] and block[i] != block[j]:
                pairs.append((p.elements[i], p.elements[j]))
        first = [best_of(1, lambda: distinguishing_formula(p, a, b)) for a, b in pairs]
        assert all(formula is not None for formula, _ in first)
        warm = sum(best_of(1, lambda: distinguishing_formula(p, a, b))[1] for a, b in pairs)
        rows.append((name, f"{len(p):,}", f"{size / 1e6:.2f} MB", duration(nodes), duration(build),
                     duration(first[0][1]), duration(sum(t for _, t in first)), duration(warm)))
    table("In-process `minimal_model` and `distinguishing_formula`, 20 same-valuation cross-class pairs a model, collector off",
          "The record is traced as `minimize._refinement` builds it on a fresh copy, which then builds all node formulas.",
          "model | cells | record | all node formulas | minimal_model | first pair | first pass | warm pass", rows)


def explain_all(p):
    """``p``'s same-valuation cross-class ordered pairs, the time to witness them, and the sibling pairs."""
    record = minimize._refinement(p)
    block = record.partition.block
    names = [(p.elements[i], p.elements[j]) for i in range(len(p)) for j in range(len(p))
             if p.valuations[i] == p.valuations[j] and block[i] != block[j]]
    found, seconds = best_of(1, lambda: [distinguishing_formula(p, a, b) for a, b in names])
    assert None not in found
    return names, seconds, len(record._witnesses)


def all_pairs(documents):
    for name, [document], _, _ in each("pairs", documents):
        loaded = load_simplicial_model(document)
        p = cell_poset(loaded)
        names, seconds, siblings = explain_all(p)
        p = cell_poset(loaded)
        tracemalloc.start()
        explain_all(p)
        size = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        table(f"Every same-valuation cross-class ordered pair of {name} ({len(p):,} cells), on one record",
              "The record is traced on another fresh copy, as tracing slows the calls it counts.",
              "pairs | sibling pairs | all pairs | per pair | record after",
              [(f"{len(names):,}", f"{siblings}", duration(seconds),
                f"{seconds / len(names) * 1e6:.2f} µs", f"{size / 1e6:.2f} MB")])


def big_check_script():
    """perfbench's big ``grid-check`` request: six saves over the grid atoms,
    which the kuhn3d models declare too."""
    return parse_script(gen.grid_script("1.2", 6))


def check_times(documents):
    script, rows = big_check_script(), []
    for name, [document], _, _ in each("check", documents):
        poset = cell_poset(load_simplicial_model(document))
        best = best_of(5, lambda: check_script(poset, script))[1]
        rows.append((name, f"{len(poset):,}", duration(best)))
    table("In-process `check_script` of six saves, best of 5, collector off",
          "The script is perfbench's big `grid-check` request, `gen.grid_script(\"1.2\", 6)`.",
          "model | cells | check_script", rows)


def check_peaks(documents):
    for name, [document], _, _ in each("peaks", documents):
        def stage(label, step):
            tracemalloc.reset_peak()
            result = step()
            live, peak = tracemalloc.get_traced_memory()
            rows.append((f"`{label}`", f"{peak / 1e6:.2f} MB", f"{live / 1e6:.2f} MB"))
            return result
        rows = []
        tracemalloc.start()
        script = big_check_script()
        # the CLI holds no copy of the file's bytes while it parses them
        model = stage("load_simplicial_model", lambda: load_simplicial_model(document.encode()))
        poset = stage("cell_poset", lambda: cell_poset(model))
        del model
        results = stage("check_script", lambda: check_script(poset, script))
        vectors = {save: s.to_bools(poset) for save, s in results.items()}
        del results
        stage("json_text", lambda: json_text({"model": "g64.json", "results": vectors}))
        tracemalloc.stop()
        table(f"`tracemalloc` peaks of a direct `check` of {name} ({len(poset):,} cells), six saves, collector off",
              "Each stage's peak counts what is live from earlier stages, as in one CLI run.",
              "stage | peak | live after", rows)


def main():
    gc.disable()
    documents = {name: make() for name, (_, make, _) in MODELS.items()}
    for report in (load_times, minimise_times, witness_times, all_pairs, check_times, check_peaks):
        report(documents)


if __name__ == "__main__":
    main()
