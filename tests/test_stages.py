"""``tools/stages.py`` on small models: every table, its rows, and one fresh
record per timed ``minimal_model`` call."""

import gc
import importlib.util
from pathlib import Path

import pytest

from polymin import minimize, random_model
from polymin.simplicial import model_to_document

from families import corridor_document, gen, kuhn3d_document

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("stages", ROOT / "tools" / "stages.py")
stages = importlib.util.module_from_spec(spec)
spec.loader.exec_module(stages)

# grid 4's classes are its three valuations, so only the corridor has pairs to witness
SMALL = {
    "grid 4": ("load minimise certify check peaks", lambda: [gen.grid_document(4, 1)], ()),
    "corridor 3": ("minimise witness pairs", lambda: [corridor_document(3)], (("x0y0", "x2y0"),)),
    "kuhn3d 2": ("load minimise certify check", lambda: [kuhn3d_document(2, 1)], ()),
    "sweep (3 models)": (
        "load", lambda: [model_to_document(m) for _, m in gen.sweep(1, 1, random_model)[:3]], ()),
    "selfcheck 2": ("selfcheck", lambda: [gen.grid_document(2, "selfcheck", vary_rooms=False)], ()),
}
# per report: its title's start, its column headers and its rows' first cells
TABLES = {
    "load_times": ("### In-process `load_simplicial_model`, `cell_poset` and `model_to_document`, "
                   "best of 5",
                   "| model | cells | load | cell_poset | load + cell_poset | model_to_document |",
                   ["grid 4", "kuhn3d 2", "sweep (3 models)"]),
    "minimise_times": ("### In-process `minimal_model`, `--self-check` certificate and `.aut` text",
                       "| model | cells | classes | minimal_model | certificate | .aut |",
                       ["grid 4", "corridor 3", "kuhn3d 2"]),
    "selfcheck_times": ("### In-process `--self-check` of perfbench's `selfcheck-explain` grids, "
                        "best of 3",
                        "| model | cells | classes | weak_pm_partition | certificate |",
                        ["selfcheck 2"]),
    "witness_times": ("### In-process `minimal_model` and `distinguishing_formula`, 20 same-valuation",
                      "| model | cells | record | all node formulas | minimal_model | first pair "
                      "| first pass | warm pass |",
                      ["corridor 3"]),
    "all_pairs": ("### Every same-valuation cross-class ordered pair of corridor 3 (27 cells), on one record",
                  "| pairs | sibling pairs | all pairs | per pair | record after |", ["128"]),
    "check_times": ("### In-process `check_script` of six saves and the write of their answers, best of 5",
                    "| model | cells | check_script | write |", ["grid 4", "kuhn3d 2"]),
    "check_peaks": ("### `tracemalloc` peaks of a direct `check` of grid 4 (113 cells), six saves",
                    "| stage | peak | live after |",
                    ["`load_simplicial_model`", "`cell_poset`", "`check_script`", "`answer_words`",
                     "`results_bytes`"]),
}


@pytest.fixture
def small(monkeypatch):
    """The small catalogue's documents, with every record build and every
    ``minimal_model`` call the tool makes counted."""
    monkeypatch.setattr(stages, "MODELS", SMALL)
    builds, calls = [], []

    class Counted(minimize._Refinement):
        def __init__(self, p):
            builds.append(p)
            super().__init__(p)

    def counted(p):
        calls.append(p)
        return minimize.minimal_model(p)

    monkeypatch.setattr(minimize, "_Refinement", Counted)
    monkeypatch.setattr(stages, "minimal_model", counted)
    documents = {name: make() for name, (_, make, _) in SMALL.items()}
    collecting = gc.isenabled()
    yield documents, builds, calls
    if collecting:
        gc.enable()  # main turns the collector off


def rows(text):
    """The first cells of the table rows under the header and alignment lines."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|---")) + 1
    return [line.split(" | ")[0][2:] for line in lines[start:] if line.startswith("| ")]


@pytest.mark.parametrize("report", TABLES)
def test_each_table_has_its_title_headers_and_rows(small, report, capsys):
    documents, _, _ = small
    getattr(stages, report)(documents)
    text = capsys.readouterr().out
    title, headers, models = TABLES[report]
    assert text.startswith(title) and headers in text.splitlines()
    assert rows(text) == models
    # every time reads above 0 in the unit it prints
    assert " 0 ms" not in text and "0.000 s" not in text


def test_every_timed_minimal_model_call_builds_a_fresh_record(small):
    documents, builds, calls = small
    stages.minimise_times(documents)
    # best of 3 on each of the three models: nine calls, each on its own poset
    assert len(calls) == 9 and len(set(map(id, calls))) == 9
    assert list(map(id, builds)) == list(map(id, calls))
    builds.clear()
    calls.clear()
    stages.witness_times(documents)
    # one traced record on a copy, then one timed call on a fresh poset
    assert len(calls) == 1 and len(builds) == 2 and builds[1] is calls[0]


def test_main_prints_every_table(small, capsys):
    stages.main()
    text = capsys.readouterr().out
    headings = [line for line in text.splitlines() if line.startswith("### ")]
    assert len(headings) == len(TABLES) == 7
    assert all(h.startswith(title) for h, (title, _, _) in zip(headings, TABLES.values()))


def test_a_duration_never_reads_0():
    assert stages.duration(0.00045) == "0.45 ms"
    assert stages.duration(0.0371) == "37.1 ms"
    assert stages.duration(0.82) == "0.820 s"
