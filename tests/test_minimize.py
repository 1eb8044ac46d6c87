import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import polymin
from polymin import (
    bisim,
    cell_poset,
    distinguishing_formula,
    map_back,
    minimal_model,
    random_model,
    sat,
    weak_pm_partition,
)
from polymin.checker import SatSet
from polymin.kripke import UnknownElementError
from polymin.logic import TOP, is_eta_pure, node_count
from polymin.minimize import UnknownClassError, _RoundLog
from polymin.simplicial import PosetModel

from conftest import concrete_d_relation, random_posets
from oracles import random_formula


def cid_of(mm, element):
    return mm.class_of_element(element)


class TestMinimalModel:
    def test_segment3(self, segment3):
        mm = minimal_model(segment3)
        assert len(mm.partition) == 2
        red = cid_of(mm, "D")
        blue = cid_of(mm, "E")
        assert mm.partition.class_members(int(red[1:])) == frozenset({"D", "D-E"})
        assert mm.kripke.relation_pairs() == frozenset(
            {(red, red), (blue, blue), (blue, red)}
        )
        assert mm.kripke.valuation_of(red) == frozenset({"red"})
        assert mm.kripke.valuation_of(blue) == frozenset({"blue"})

    def test_strip4(self, strip4):
        mm = minimal_model(strip4)
        assert len(mm.partition) == 4
        c1 = cid_of(mm, "A")
        c2 = cid_of(mm, "B")
        c3 = cid_of(mm, "D")
        c4 = cid_of(mm, "C-D-E")
        relation = mm.kripke.relation_pairs()
        assert {(c3, c2), (c2, c3), (c3, c3), (c1, c2), (c2, c4)} <= relation
        assert (c1, c4) not in relation

    def test_triangle_full_relation(self, triangle):
        mm = minimal_model(triangle)
        assert len(mm.partition) == 2
        assert len(mm.kripke.relation_pairs()) == 4

    @pytest.mark.parametrize("cid", ["C-1", "1", "C01", "C+1", "C4", "C", "c1", " C1", "C1 ", "C\u0661"])
    def test_members_of_rejects_foreign_ids(self, strip4, cid):
        mm = minimal_model(strip4)
        assert [len(mm.members_of(f"C{i}")) for i in range(4)] == [1, 9, 8, 1]
        with pytest.raises(UnknownClassError):
            mm.members_of(cid)

    def test_class_of_element_rejects_unknown_cells(self, strip4):
        with pytest.raises(UnknownElementError):
            minimal_model(strip4).class_of_element("Z")

    def test_production_routes_skip_the_concrete_encoding(self, strip4, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the concrete route is an oracle only")

        monkeypatch.setattr(bisim, "encode_concrete", forbidden)
        monkeypatch.setattr(bisim, "branching_partition", forbidden)
        assert len(minimal_model(strip4).partition) == 4
        assert distinguishing_formula(strip4, "A", "D") is not None

    def test_relation_is_reflexive(self):
        for _, p in random_posets(15):
            mm = minimal_model(p)
            for c in mm.kripke.elements:
                assert mm.kripke.related(c, c)


class TestQuotientDRoute:
    def test_matches_on_fixtures(self, segment3, triangle, strip4):
        for p in (segment3, triangle, strip4):
            assert concrete_d_relation(p) == minimal_model(p).kripke.relation_pairs()

    def test_matches_on_random_models(self):
        for seed, p in random_posets(30):
            assert concrete_d_relation(p) == minimal_model(p).kripke.relation_pairs(), seed

    def test_one_element_poset(self):
        p = PosetModel(["A"], [], {"A": ["p"]})
        assert concrete_d_relation(p) == frozenset({("C0", "C0")})


class TestMapBack:
    def test_red_class_vector(self, segment3):
        mm = minimal_model(segment3)
        red = cid_of(mm, "D")
        result = SatSet(frozenset({red}), TOP)
        assert map_back(mm, result) == [True, False, False, True, False]

    def test_empty_and_full(self, strip4):
        mm = minimal_model(strip4)
        assert map_back(mm, SatSet(frozenset(), TOP)) == [False] * 19
        everything = frozenset(mm.kripke.elements)
        assert map_back(mm, SatSet(everything, TOP)) == [True] * 19

    def test_unknown_class_rejected(self, segment3):
        mm = minimal_model(segment3)
        with pytest.raises(UnknownClassError):
            map_back(mm, SatSet(frozenset({"C9"}), TOP))


class TestTransfer:
    def test_answers_transfer_through_the_quotient(self):
        pairs = 0
        for seed, p in random_posets(40):
            mm = minimal_model(p)
            for k in range(5):
                f = random_formula(seed * 41 + k, 3, list(p.atoms) or ["p0"])
                direct = sat(p, f).to_bools(p)
                classwise = sat(mm.kripke, f)
                assert map_back(mm, classwise) == direct, (seed, f)
                pairs += 1
        assert pairs >= 200


class TestDistinguishingFormula:
    def test_strip4_separates_isolated_grey_vertex(self, strip4):
        f = distinguishing_formula(strip4, "A", "D")
        assert f is not None
        assert is_eta_pure(f)
        extension = sat(strip4, f).members
        assert ("A" in extension) != ("D" in extension)

    def test_strip4_same_class_gives_none(self, strip4):
        assert distinguishing_formula(strip4, "E", "D-E-F") is None

    def test_same_element_gives_none(self, strip4):
        assert distinguishing_formula(strip4, "A", "A") is None

    def test_different_valuations_yield_literal(self, segment3):
        f = distinguishing_formula(segment3, "D", "E")
        assert f is not None
        extension = sat(segment3, f).members
        assert "D" in extension and "E" not in extension

    def test_unknown_element(self, segment3):
        with pytest.raises(UnknownElementError):
            distinguishing_formula(segment3, "D", "Z")

    def test_sound_and_complete_on_random_models(self):
        for seed, p in random_posets(20):
            part = weak_pm_partition(p)
            for a, b in combinations(p.elements, 2):
                f = distinguishing_formula(p, a, b)
                if part.same_class(a, b):
                    assert f is None, (seed, a, b)
                else:
                    assert f is not None and is_eta_pure(f), (seed, a, b)
                    extension = sat(p, f).members
                    assert (a in extension) != (b in extension), (seed, a, b, f)
        # 171 and 229 cells; a sample of the same-valuation pairs
        for seed in (11, 37):
            p = cell_poset(random_model(seed, 12, 5, 2))
            part = minimal_model(p).partition
            pairs = [
                (a, b) for a, b in combinations(p.elements, 2)
                if p.valuation_of(a) == p.valuation_of(b)
            ]
            for a, b in pairs[::47]:
                f = distinguishing_formula(p, a, b)
                if part.same_class(a, b):
                    assert f is None, (seed, a, b)
                else:
                    assert f is not None and is_eta_pure(f), (seed, a, b)
                    extension = sat(p, f).members
                    assert a in extension and b not in extension, (seed, a, b, f)

    def test_refinement_agrees_with_direct_fixpoint(self):
        for seed, p in random_posets(20):
            log = _RoundLog(p)
            for k, block in enumerate(log.rounds):
                cells: dict[int, set[str]] = {}
                for w, component in zip(p.elements, log.components.block):
                    cells.setdefault(block[component], set()).add(w)
                for j, extension in cells.items():
                    formula, size = log.formula(k, j)
                    assert sat(p, formula).members == extension, (seed, k, j)
                    assert node_count(formula) == size, (seed, k, j)
            assert set(map(frozenset, cells.values())) == set(weak_pm_partition(p).classes), seed

    def test_witness_text_is_independent_of_hash_seed(self):
        program = (
            "from itertools import combinations\n"
            "from polymin import cell_poset, distinguishing_formula, format_formula, random_model\n"
            "p = cell_poset(random_model(11, 12, 5, 2))\n"
            "for a, b in list(combinations(p.elements, 2))[::211]:\n"
            "    f = distinguishing_formula(p, a, b)\n"
            "    print(a, b, f and format_formula(f))\n"
        )
        src = str(Path(polymin.__file__).parent.parent)
        outputs = [
            subprocess.run(
                [sys.executable, "-c", program],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("1", "2")
        ]
        assert outputs[0] == outputs[1]
        assert "eta(" in outputs[0]


class TestIdempotence:
    def test_classes_of_the_minimal_model_are_pairwise_distinguished(
        self, segment3, triangle, strip4
    ):
        # evaluating each separating formula on the quotient itself must
        # separate the corresponding nodes, i.e. the quotient admits no
        # further collapse
        for p in (segment3, triangle, strip4):
            mm = minimal_model(p)
            reps = {c: min(mm.members_of(c), key=p.index_of) for c in mm.kripke.elements}
            for c1, c2 in combinations(mm.kripke.elements, 2):
                f = distinguishing_formula(p, reps[c1], reps[c2])
                assert f is not None
                extension = sat(mm.kripke, f).members
                assert (c1 in extension) != (c2 in extension)
