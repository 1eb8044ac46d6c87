"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import client  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def test_grid_document_is_a_function_of_its_seed():
    for vary in (True, False):
        assert gen.grid_document(8, 3, vary) == gen.grid_document(8, 3, vary)
    assert gen.grid_document(8, 3) != gen.grid_document(8, 4)


def test_grid_document_has_the_predicted_cells():
    from polymin import load_simplicial_model

    for n in (1, 3, 4, 8, 16):
        doc = gen.grid_document(n, 0)
        assert len(json.loads(doc)["cells"]) == gen.grid_cells(n)
        load_simplicial_model(doc)  # valid: closed under faces
    assert gen.grid_cells(4) == 113 and gen.grid_cells(8) == 417
    assert gen.grid_cells(64) == 24833


def test_scripts_and_sweep_are_functions_of_their_seed():
    from polymin.simplicial import model_to_document, random_model

    assert gen.grid_script(5, 6) == gen.grid_script(5, 6)
    assert gen.random_scripts(5, ["p0", "p1"]) == gen.random_scripts(5, ["p0", "p1"])
    first = [(a, model_to_document(m)) for a, m in gen.sweep(2, 2, random_model)]
    again = [(a, model_to_document(m)) for a, m in gen.sweep(2, 2, random_model)]
    assert first == again
    for ((_, _, _, _), m), (lo, hi) in zip(gen.sweep(2, 1, random_model), gen.SWEEP_BINS):
        assert lo <= len(m.cells) < hi


def test_setup_writes_the_same_bytes_for_the_same_seed(tmp_path, monkeypatch):
    def setup(name, where):
        where.mkdir(parents=True)
        monkeypatch.chdir(where)  # the benchmark passes relative paths, as here
        plan = workloads.setup(name, 7, Path("w"), ROOT)
        files = {p: p.read_bytes() for p in sorted(Path("w").rglob("*")) if p.is_file()}
        return plan, files

    for name in ("random-minimize", "selfcheck-explain"):
        assert setup(name, tmp_path / name / "a") == setup(name, tmp_path / name / "b")


def test_gate_fails_a_request_whose_check_cannot_run(tmp_path):
    out = tmp_path / "out.json"
    out.write_text('{"results": {}}')
    req = {"key": "k", "kind": "cli", "outputs": [str(out)],
           "expect": {"type": "check", "saves": [], "cells": 1,
                      "same_bytes_as_file": str(tmp_path / "missing.json")}}
    why = client.Gate(None, record=False).verify(req, {"rc": 0, "stderr": ""})
    assert why.startswith("gate error: FileNotFoundError")


def test_gate_checks_witnesses_without_recorded_digests():
    gate = client.Gate({"k": "0" * 64}, record=False)
    req = {"key": "k", "kind": "explain", "argv": ["m.json", "a", "b"], "outputs": [],
           "expect": {"type": "explain", "same_class": True}}
    assert gate.verify(req, {"formula": None}) is None


def test_host_speed_scales_by_the_readings_around_an_interval():
    host = speed.HostSpeed()
    # a slow spell (twice the reference time) from 10 s on
    host.at = [k * 0.1 for k in range(200)]
    host.took = [speed.REFERENCE_S * (2 if t >= 10 else 1) for t in host.at]
    assert host.scale(3.0, 3.2) == 1.0
    assert host.scale(15.0, 15.2) == 0.5
    # a reading far from a long interval does not count
    assert host.scale(12.0, 18.0) == 0.5


def test_host_speed_takes_the_nearest_readings_when_the_window_is_empty():
    host = speed.HostSpeed()
    host.at = [0.0, 0.1, 0.2, 0.3, 0.4, 50.0, 50.1, 50.2, 50.3, 50.4]
    host.took = [speed.REFERENCE_S] * 5 + [speed.REFERENCE_S * 4] * 5
    assert host.scale(30.0, 30.1) == 0.25  # the five at 50 s are nearer
    host.read()
    assert len(host.at) == 11 and host.took[-1] > 0


def test_self_time_subtracts_the_children():
    spans = [
        Span("root", 0.0, 10.0, -1, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("a1", 2.0, 3.0, 1, "r"),
        Span("b", 5.0, 9.0, 0, "r"),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span("root", 0.0, 10.0, -1, "r"),
        Span("a", 2.0, 6.0, 0, "r"),
        Span("b", 4.0, 8.0, 0, "r"),  # overlaps a on [4, 6]
        Span("c", 9.0, 12.0, 0, "r"),  # runs past the root's end
    ]
    assert tracing.self_times(spans)[0] == 10.0 - 6.0 - 1.0


def test_per_layer_divides_by_requests():
    spans = [
        Span(tracing.ROOT_CLI, 0.0, 4.0, -1, "r1"),
        Span("minimize.minimal_model", 1.0, 3.0, 0, "r1"),
        Span("bisim.branching_partition", 1.5, 2.5, 1, "r1"),
        Span(tracing.ROOT_CLI, 10.0, 12.0, -1, "r2"),
    ]
    counts = {"bisim.classes": 6, "bisim.classes_per_cell.base": 24, "simplicial.cells": 24}
    got = tracing.per_layer(spans, counts, requests=2, overhead=0.05)
    assert got["cli.self_s"] == (2.0 + 2.0) / 2
    assert got["minimize.minimal_model.self_s"] == 1.0 / 2
    assert got["minimize.minimal_model.calls"] == 0.5
    assert got["bisim.branching_partition.s"] == 0.5
    assert got["bisim.classes_per_cell"] == 0.25
    assert got["simplicial.cells"] == 12
    assert got["bisim.weak_pm_partition.s"] == 0
    assert got["trace.overhead_frac"] == 0.05


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in tracing.PER_LAYER
    ]
    e2e = run.end_to_end([[0, "k", 0.5, 10, "s", True, None, False]] * 4, 1.0, 2048)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()
    ]


def test_boundary_warning_fires_only_near_p50_and_p90():
    def rows(small, big):
        return [[0, "k", 0.01, 1, "small", True, None, False]] * small + \
               [[0, "k", 1.0, 1, "big", True, None, False]] * big

    assert run.boundary_warnings(rows(70, 30)) == []
    assert run.boundary_warnings(rows(51, 49)) != []
    assert run.boundary_warnings(rows(91, 9)) != []
