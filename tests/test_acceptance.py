"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from polymin import (
    branching_partition,
    cell_poset,
    encode_abstract,
    encode_concrete,
    load_simplicial_model,
    minimal_model,
    parse_formula,
    random_model,
    sat,
    strong_partition,
    weak_pm_partition,
)
from polymin.bisim import pull_back
from polymin.cli import main
from polymin.logic import atoms_of, format_formula
from polymin.simplicial import model_to_document

from conftest import concrete_d_relation
from oracles import encode_eta_to_gamma, random_formula, sat_eta_path_oracle

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2}: FAIL  {title}")
        raise
    print(f"ACCEPTANCE {number:>2}: PASS  {title}")


def fixture_poset(name):
    return cell_poset(load_simplicial_model((FIXTURES / name).read_bytes()))


def small_random_posets(count, seed_base=0, max_cells=12):
    """Deterministic stream of random posets with <= max_cells elements and
    one to three atoms."""
    shapes = [(4, 2, 1), (4, 2, 2), (5, 2, 3), (3, 1, 2), (5, 1, 3), (4, 3, 2)]
    produced = 0
    seed = seed_base
    while produced < count:
        n_vertices, max_dim, n_atoms = shapes[seed % len(shapes)]
        model = random_model(seed, n_vertices, max_dim, n_atoms)
        seed += 1
        if len(model.cells) > max_cells:
            continue
        produced += 1
        yield seed - 1, cell_poset(model)


def classes_of(p):
    return {frozenset(c) for c in weak_pm_partition(p).classes}


def test_criterion_1_segment3_end_to_end():
    with criterion(1, "segment3 pipeline: 2 classes and exact minimal relation, < 0.1 s"):
        document = (FIXTURES / "segment3.json").read_bytes()
        start = time.perf_counter()
        p = cell_poset(load_simplicial_model(document))
        mm = minimal_model(p)
        elapsed = time.perf_counter() - start
        blocks = {frozenset(c) for c in mm.partition.classes}
        assert blocks == {frozenset({"D", "D-E"}), frozenset({"E", "E-F", "F"})}
        red = mm.class_of_element("D")
        blue = mm.class_of_element("E")
        assert mm.kripke.relation_pairs() == frozenset(
            {(red, red), (blue, blue), (blue, red)}
        )
        assert elapsed < 0.1, f"pipeline took {elapsed:.3f}s"


def test_criterion_2_strip4_classes_and_relation():
    with criterion(2, "strip4: the four documented classes and relation shape, < 0.5 s"):
        document = (FIXTURES / "strip4.json").read_bytes()
        start = time.perf_counter()
        p = cell_poset(load_simplicial_model(document))
        mm = minimal_model(p)
        elapsed = time.perf_counter() - start
        blocks = {frozenset(c) for c in mm.partition.classes}
        assert blocks == {
            frozenset({"A"}),
            frozenset({"B", "C", "A-B", "A-C", "B-C", "B-D", "C-D", "A-B-C", "B-C-D"}),
            frozenset({"D", "E", "F", "C-E", "D-E", "D-F", "E-F", "D-E-F"}),
            frozenset({"C-D-E"}),
        }
        c1 = mm.class_of_element("A")
        c2 = mm.class_of_element("B")
        c3 = mm.class_of_element("D")
        c4 = mm.class_of_element("C-D-E")
        relation = mm.kripke.relation_pairs()
        assert {(c3, c2), (c2, c3), (c3, c3), (c1, c2), (c2, c4)} <= relation
        assert (c1, c4) not in relation
        assert elapsed < 0.5, f"pipeline took {elapsed:.3f}s"


def test_criterion_3_triangle_classes_and_gamma_separation():
    with criterion(3, "triangle: 2 classes; gamma separates what the classes merge"):
        p = fixture_poset("triangle_abc.json")
        part = weak_pm_partition(p)
        assert {frozenset(c) for c in part.classes} == {
            frozenset({"A-B", "A-C", "B-C"}),
            frozenset({"A", "B", "C", "A-B-C"}),
        }
        extension = sat(p, parse_formula("gamma(red, true)")).members
        assert "A" in extension and "A-B-C" not in extension
        assert part.same_class("A", "A-B-C")


def test_criterion_4_equivalence_routes_agree():
    with criterion(4, "100 random models: direct, concrete and abstract routes agree, < 30 s"):
        start = time.perf_counter()
        mismatches = 0
        for seed, p in small_random_posets(100):
            direct = weak_pm_partition(p)
            concrete = branching_partition(encode_concrete(p))
            abstract_lts, components = encode_abstract(p)
            pulled = pull_back(strong_partition(abstract_lts), components)
            if not (direct == concrete == pulled):
                mismatches += 1
        elapsed = time.perf_counter() - start
        assert mismatches == 0
        assert elapsed < 30, f"suite took {elapsed:.1f}s"


def test_criterion_5_path_oracle_agreement():
    with criterion(5, "200 random formula checks: linear algorithm equals path oracle"):
        mismatches = 0
        pairs = 0
        for seed, p in small_random_posets(50, seed_base=1000):
            atoms = list(p.atoms) or ["p0"]
            for k in range(4):
                f = random_formula(seed * 37 + k, 3, atoms)
                pairs += 1
                if sat(p, f).members != sat_eta_path_oracle(p, f, 2 * len(p)).members:
                    mismatches += 1
        assert pairs >= 200
        assert mismatches == 0


def test_criterion_6_rewriting_preserves_answers():
    with criterion(6, "500 random formula checks: eta elimination preserves extensions"):
        mismatches = 0
        pairs = 0
        for seed, p in small_random_posets(50, seed_base=2000):
            atoms = list(p.atoms) or ["p0"]
            for k in range(10):
                f = random_formula(seed * 101 + k, 3, atoms)
                pairs += 1
                if sat(p, f).members != sat(p, encode_eta_to_gamma(f)).members:
                    mismatches += 1
        assert pairs >= 500
        assert mismatches == 0


def _script_text(formulas):
    lines = []
    for a in sorted(set().union(*(atoms_of(f) for f in formulas))):
        lines.append(f'let {a} = ap("{a}")')
    for i, f in enumerate(formulas):
        lines.append(f'save "f{i}" {format_formula(f)}')
    return "\n".join(lines) + "\n"


def _check_both_ways(model_path, script_path, tmp_path, tag):
    direct = tmp_path / f"{tag}.direct.json"
    minimal = tmp_path / f"{tag}.minimal.json"
    base = ["check", str(script_path), "--model", str(model_path)]
    assert main(base + ["-o", str(direct)]) == 0
    assert main(base + ["-o", str(minimal), "--on-minimal"]) == 0
    return direct.read_bytes() == minimal.read_bytes()


def test_criterion_7_minimisation_transfer(tmp_path):
    with criterion(7, "fixtures + 50 random model/script pairs: direct == on-minimal, bytewise"):
        failures = 0
        fixture_scripts = {
            "segment3.json": [parse_formula("eta(red, blue)"), parse_formula("!red & blue")],
            "triangle_abc.json": [parse_formula("eta(blue, red)"), parse_formula("red | blue")],
            "strip4.json": [
                parse_formula("eta(green | grey, green)"),
                parse_formula("eta(grey | red, red)"),
            ],
        }
        for name, formulas in fixture_scripts.items():
            script = tmp_path / f"{name}.script"
            script.write_text(_script_text(formulas))
            if not _check_both_ways(FIXTURES / name, script, tmp_path, name):
                failures += 1

        for seed, p in small_random_posets(50, seed_base=3000):
            model = random_model(seed, 4, 2, 2)
            if len(model.cells) > 12:
                model = random_model(seed, 3, 1, 2)
            model_path = tmp_path / f"m{seed}.json"
            model_path.write_text(model_to_document(model))
            atoms = list(model.atoms) or ["p0"]
            formulas = [random_formula(seed * 7 + k, 3, atoms) for k in range(2)]
            script = tmp_path / f"m{seed}.script"
            script.write_text(_script_text(formulas))
            if not _check_both_ways(model_path, script, tmp_path, f"m{seed}"):
                failures += 1
        assert failures == 0


def test_criterion_8_relation_routes_agree():
    with criterion(8, "fixtures + 100 random models: quotient d-route equals direct relation"):
        mismatches = 0
        for name in ("segment3.json", "triangle_abc.json", "strip4.json"):
            p = fixture_poset(name)
            if concrete_d_relation(p) != minimal_model(p).kripke.relation_pairs():
                mismatches += 1
        for seed, p in small_random_posets(100, seed_base=4000):
            if concrete_d_relation(p) != minimal_model(p).kripke.relation_pairs():
                mismatches += 1
        assert mismatches == 0


def test_criterion_9_extensions_are_unions_of_classes():
    with criterion(9, "200 random formula checks: every answer is a union of classes"):
        violations = 0
        pairs = 0
        for seed, p in small_random_posets(40, seed_base=5000):
            part = weak_pm_partition(p)
            atoms = list(p.atoms) or ["p0"]
            for k in range(5):
                f = random_formula(seed * 13 + k, 3, atoms)
                pairs += 1
                extension = sat(p, f).members
                for block in part.classes:
                    hit = block & extension
                    if hit and hit != block:
                        violations += 1
                        break
        assert pairs >= 200
        assert violations == 0


@pytest.mark.skip(
    reason="conditional criterion: the published class counts (7/21/38/21) need maze "
    "fixtures whose room/corridor tetrahedralisation is not specified; "
    "a maze generator is future work"
)
def test_criterion_10_maze_class_counts():
    pass
