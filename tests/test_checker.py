import random
import tracemalloc

import pytest

from polymin import (
    ReflexiveKripkeModel,
    cell_poset,
    check_script,
    load_simplicial_model,
    minimal_model,
    parse_formula,
    parse_script,
    sat,
)
from polymin.checker import UnknownAtomError
from polymin.logic import (
    And, Atom, Diamond, Eta, EtaPurityError, Gamma, Not, Or, Script, TOP,
)

from conftest import grid_document, random_posets
from oracles import (
    BoundTooSmallError, check_script_by_names, encode_eta_to_gamma, random_formula,
    sat_eta_path_oracle,
)


def members(sat_set, model):
    return model.sorted_elements(sat_set.members)


def gamma_by_enumeration(model, cond_set, target_set, bound):
    """Brute-force reference for the unconstrained reach operator: search for
    an undirected path of length 2..bound whose first step follows the
    relation, whose last step follows its converse, with every intermediate
    element in ``cond_set`` and the final element in ``target_set``."""
    satisfied = set()
    for w in model.elements:
        frontier = set(model.successors(w))
        for length in range(2, bound + 1):
            next_frontier = set()
            for u in frontier:
                # u sits at position length-1: intermediate for this length
                if u in cond_set:
                    if any(t in target_set for t in model.predecessors(u)):
                        satisfied.add(w)
                    next_frontier.update(model.undirected_neighbours(u))
            if w in satisfied:
                break
            frontier = next_frontier
    return frozenset(satisfied)


class TestSatExamples:
    def test_strip4_reach_green_through_grey(self, strip4):
        s = sat(strip4, parse_formula("eta(green | grey, green)"))
        assert "D" in s
        assert "A" not in s

    def test_strip4_every_grey_reaches_red(self, strip4):
        s = sat(strip4, parse_formula("eta(grey | red, red)"))
        greys = [w for w in strip4.elements if "grey" in strip4.valuation_of(w)]
        assert all(g in s for g in greys)

    def test_triangle_gamma_separates_vertex_from_interior(self, triangle):
        s = sat(triangle, parse_formula("gamma(red, true)"))
        assert "A" in s
        assert "A-B-C" not in s

    def test_triangle_gamma_exact_extension(self, triangle):
        s = sat(triangle, parse_formula("gamma(red, true)"))
        red = triangle.atom_extension("red")
        expected = gamma_by_enumeration(triangle, red, frozenset(triangle.elements), 14)
        assert s.members == expected
        assert members(s, triangle) == ["A", "B", "C", "A-B", "A-C", "B-C"]

    def test_top_is_everything(self, segment3, triangle, strip4):
        for p in (segment3, triangle, strip4):
            assert sat(p, TOP).members == frozenset(p.elements)

    def test_segment3_eta_red_blue(self, segment3):
        s = sat(segment3, parse_formula("eta(red, blue)"))
        assert members(s, segment3) == ["D", "D-E"]

    def test_segment3_eta_blue_red_is_empty(self, segment3):
        # no red cell lies below any blue cell, and a witnessing path must
        # end with a downward step, so nothing qualifies
        s = sat(segment3, parse_formula("eta(blue, red)"))
        assert s.members == frozenset()


class TestOracle:
    def test_segment3_eta_red_blue(self, segment3):
        s = sat_eta_path_oracle(segment3, Eta(Atom("red"), Atom("blue")), 10)
        assert members(s, segment3) == ["D", "D-E"]

    def test_segment3_eta_blue_red(self, segment3):
        s = sat_eta_path_oracle(segment3, Eta(Atom("blue"), Atom("red")), 10)
        assert s.members == frozenset()

    def test_bound_too_small(self, segment3):
        with pytest.raises(BoundTooSmallError):
            sat_eta_path_oracle(segment3, Eta(Atom("red"), Atom("blue")), 1)

    def test_rejects_gamma(self, segment3):
        with pytest.raises(EtaPurityError):
            sat_eta_path_oracle(segment3, Gamma(Atom("red"), TOP), 10)

    def test_agrees_with_sat_on_random_pairs(self):
        for seed, p in random_posets(60):
            f = random_formula(seed + 500, 3, list(p.atoms) or ["p0"])
            fast = sat(p, f).members
            slow = sat_eta_path_oracle(p, f, 2 * len(p)).members
            assert fast == slow, (seed, f)


class TestProperties:
    def test_eta_results_satisfy_first_argument(self):
        for seed, p in random_posets(30):
            atoms = list(p.atoms) or ["p0"]
            cond = random_formula(seed, 2, atoms)
            target = random_formula(seed + 99, 2, atoms)
            assert sat(p, Eta(cond, target)).members <= sat(p, cond).members

    def test_encoding_preserves_extensions(self):
        for seed, p in random_posets(60):
            f = random_formula(seed + 7000, 3, list(p.atoms) or ["p0"])
            assert sat(p, f).members == sat(p, encode_eta_to_gamma(f)).members

    def test_weakening_condition_is_monotone(self):
        for seed, p in random_posets(30):
            atoms = list(p.atoms) or ["p0"]
            cond = random_formula(seed, 2, atoms)
            target = random_formula(seed + 1, 2, atoms)
            extra = random_formula(seed + 2, 2, atoms)
            small = sat(p, Eta(cond, target)).members
            large = sat(p, Eta(Or(cond, extra), target)).members
            assert small <= large

    def test_diamond_equals_gamma_true(self):
        for seed, p in random_posets(30):
            f = random_formula(seed + 31, 2, list(p.atoms) or ["p0"])
            assert sat(p, Diamond(f)).members == sat(p, Gamma(f, TOP)).members


class TestKripkeInputs:
    def test_non_reflexive_rejected(self):
        with pytest.raises(ValueError):
            ReflexiveKripkeModel(["a", "b"], [("a", "b")], {"a": [], "b": []})

    def test_sat_on_plain_kripke_model(self):
        # a 2-cycle plus reflexive loops: not a poset, still checkable
        m = ReflexiveKripkeModel(
            ["a", "b"],
            [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")],
            {"a": ["p"], "b": ["q"]},
        )
        s = sat(m, Eta(Atom("p"), Atom("q")))
        assert s.members == frozenset({"a"})


class TestScripts:
    def test_five_save_script_over_fixture(self, strip4):
        # same shape as a full analysis script: named atoms, nested reach
        # formulas, five result sets
        script = parse_script(
            'let green    = ap("green")\n'
            'let grey     = ap("grey")\n'
            'let red      = ap("red")\n'
            'let oneStep  = eta((green | eta(grey, green)), green)\n'
            'let twoStep  = eta((green | eta(grey, oneStep)), oneStep) & (!oneStep)\n'
            'save "green" green\n'
            'save "grey" grey\n'
            'save "red" red\n'
            'save "phi1" oneStep\n'
            'save "phi2" twoStep\n'
        )
        results = check_script(strip4, script)
        assert list(results) == ["green", "grey", "red", "phi1", "phi2"]
        assert members(results["green"], strip4) == ["C-D-E"]
        assert all(r.members <= frozenset(strip4.elements) for r in results.values())

    def test_script_over_fixture(self, strip4):
        script = parse_script(
            'let g = ap("green")\n'
            'let target = eta(g | ap("grey"), g)\n'
            'save "greens" g\n'
            'save "reach" target\n'
        )
        results = check_script(strip4, script)
        assert list(results) == ["greens", "reach"]
        assert members(results["greens"], strip4) == ["C-D-E"]
        assert "D" in results["reach"]
        assert "A" not in results["reach"]

    def test_empty_script(self, strip4):
        assert check_script(strip4, parse_script("")) == {}

    def test_absent_atom_is_empty(self, segment3):
        s = sat(segment3, Atom("nope"))
        assert s.members == frozenset()

    def test_strict_mode_rejects_absent_atom(self, segment3):
        with pytest.raises(UnknownAtomError):
            sat(segment3, Atom("nope"), strict_atoms=True)


def any_formula(rng, depth, atoms):
    """A random formula over every operator; ``atoms`` may name atoms the
    model does not declare."""
    if depth == 0 or rng.random() < 0.2:
        return TOP if rng.random() < 0.1 else Atom(rng.choice(atoms))
    op = rng.choice([Not, Diamond, And, Or, Eta, Gamma])
    if op in (Not, Diamond):
        return op(any_formula(rng, depth - 1, atoms))
    return op(any_formula(rng, depth - 1, atoms), any_formula(rng, depth - 1, atoms))


class TestAgainstSetOracle:
    """``check_script`` equals the name-based set evaluator it replaced, on
    every save, for every operator, in both strict-atom modes, on posets and
    on their (non-poset) minimal models."""

    def check_model(self, model, seed):
        rng = random.Random(seed)
        atoms = list(model.atoms) + (["undeclared"] if seed % 3 == 0 else [])
        shared = any_formula(rng, 2, atoms)
        saves = {f"s{i}": any_formula(rng, 4, atoms) for i in range(6)}
        saves["shared"] = And(shared, Eta(shared, Not(shared)))
        script = Script(bindings={}, saves=saves)
        for strict in (False, True):
            try:
                expected = check_script_by_names(model, script, strict)
            except UnknownAtomError as exc:
                with pytest.raises(UnknownAtomError, match=str(exc)):
                    check_script(model, script, strict_atoms=strict)
                continue
            got = check_script(model, script, strict_atoms=strict)
            assert {k: v.members for k, v in got.items()} == expected, (seed, strict)

    def test_fixtures(self, segment3, triangle, strip4):
        for p in (segment3, triangle, strip4):
            for seed in range(40):
                self.check_model(p, seed)
                self.check_model(minimal_model(p).kripke, seed)

    def test_random_models(self):
        for seed, p in random_posets(60, max_cells=40, n_vertices=6, max_dim=3, n_atoms=3):
            self.check_model(p, seed)
            self.check_model(minimal_model(p).kripke, seed)


def test_memory_grows_linearly_with_the_grid():
    """Cells grow about 4x from k=16 to k=32; a table per cell that spans
    all cells, such as an int bitset per up-set, would grow the peak about
    16x."""
    script = Script(bindings={}, saves={
        "eta": Eta(Or(Atom("floor"), Atom("goal")), Atom("goal")),
        "gamma": And(Gamma(Atom("floor"), Atom("goal")), Not(Atom("wall"))),
        "diamond": Diamond(Atom("wall")),
    })
    peaks = []
    for k in (16, 32):
        model = load_simplicial_model(grid_document(k))
        tracemalloc.start()
        try:
            check_script(cell_poset(model), script)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 6 * peaks[0], peaks
