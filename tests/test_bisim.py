import pytest

from polymin import (
    branching_partition,
    components_same_valuation,
    encode_abstract,
    encode_concrete,
    from_aut,
    parse_formula,
    quotient_lts,
    sat,
    strong_partition,
    to_aut,
    weak_pm_partition,
)
from polymin.bisim import (
    CHANGE,
    DOWN,
    Lts,
    Partition,
    STEP,
    TAU,
    pull_back,
)
from polymin.simplicial import PosetModel

from oracles import is_weak_pm_bisimulation, random_formula

from conftest import random_posets


def class_sets(partition):
    return {frozenset(c) for c in partition.classes}


def one_point_poset():
    return PosetModel(["A"], [], {"A": ["p"]})


SEG_RED = frozenset({"D", "D-E"})
SEG_BLUE = frozenset({"E", "E-F", "F"})

STRIP_CLASSES = {
    frozenset({"A"}),
    frozenset({"B", "C", "A-B", "A-C", "B-C", "B-D", "C-D", "A-B-C", "B-C-D"}),
    frozenset({"D", "E", "F", "C-E", "D-E", "D-F", "E-F", "D-E-F"}),
    frozenset({"C-D-E"}),
}

TRI_CLASSES = {
    frozenset({"A-B", "A-C", "B-C"}),
    frozenset({"A", "B", "C", "A-B-C"}),
}


class TestEncodeConcrete:
    def test_segment3_transition_counts(self, segment3):
        lts = encode_concrete(segment3)
        assert len(lts.states) == 5
        assert len(lts.transitions) == 27
        atom_loops = sum(
            1 for _, lab, _ in lts.transitions if lab not in (TAU, CHANGE, DOWN)
        )
        assert atom_loops == 5
        assert lts.count_label(TAU) == 11
        assert lts.count_label(CHANGE) == 2
        assert lts.count_label(DOWN) == 9

    def test_segment3_specific_transitions(self, segment3):
        lts = encode_concrete(segment3)
        assert ("D-E", CHANGE, "E") in lts.transitions
        assert ("E", CHANGE, "D-E") in lts.transitions
        assert ("D-E", DOWN, "E") in lts.transitions
        assert ("E", DOWN, "D-E") not in lts.transitions

    def test_one_element_poset(self):
        lts = encode_concrete(one_point_poset())
        assert set(lts.transitions) == {("A", "p", "A"), ("A", TAU, "A"), ("A", DOWN, "A")}

    def test_down_uses_full_order_not_covers(self, strip4):
        lts = encode_concrete(strip4)
        # D sits two levels below D-E-F; the down transition is still direct
        assert ("D-E-F", DOWN, "D") in lts.transitions

    def test_reserved_label_clash_rejected(self):
        p = PosetModel(["A"], [], {"A": ["tau"]})
        with pytest.raises(ValueError):
            encode_concrete(p)


class TestComponents:
    def test_segment3(self, segment3):
        part = components_same_valuation(segment3)
        assert class_sets(part) == {SEG_RED, SEG_BLUE}

    def test_triangle_components(self, triangle):
        # comparability uses the full order, so each blue vertex touches the
        # blue interior A-B-C directly; red edges stay apart (all their
        # comparable cells are blue)
        part = components_same_valuation(triangle)
        assert class_sets(part) == {
            frozenset({"A", "B", "C", "A-B-C"}),
            frozenset({"A-B"}),
            frozenset({"A-C"}),
            frozenset({"B-C"}),
        }

    def test_uniform_connected_model_is_one_class(self):
        p = PosetModel(
            ["a", "b", "ab"],
            [("a", "ab"), ("b", "ab")],
            {"a": ["p"], "b": ["p"], "ab": ["p"]},
        )
        assert len(components_same_valuation(p)) == 1

    def test_refines_weak_partition(self):
        for _, p in random_posets(25):
            assert components_same_valuation(p).refines(weak_pm_partition(p))


class TestEncodeAbstract:
    def test_segment3(self, segment3):
        lts, part = encode_abstract(segment3)
        assert len(lts.states) == 2
        assert len(lts.transitions) == 9
        assert lts.count_label(STEP) == 4
        assert lts.count_label(DOWN) == 3
        assert class_sets(part) == {SEG_RED, SEG_BLUE}
        red_name = part.names[part.class_of("D")]
        blue_name = part.names[part.class_of("E")]
        assert (red_name, frozenset({"red"}), red_name) in lts.transitions
        assert (red_name, DOWN, blue_name) in lts.transitions
        assert (blue_name, DOWN, red_name) not in lts.transitions

    def test_one_element_poset(self):
        lts, _ = encode_abstract(one_point_poset())
        assert len(lts.states) == 1
        assert len(lts.transitions) == 3

    def test_strip4_state_count(self, strip4):
        lts, _ = encode_abstract(strip4)
        assert len(lts.states) == len(components_same_valuation(strip4)) == 4

    def test_state_count_matches_components(self):
        for _, p in random_posets(20):
            lts, part = encode_abstract(p)
            assert len(lts.states) == len(components_same_valuation(p))
            assert part == components_same_valuation(p)


class TestBranching:
    def test_segment3(self, segment3):
        part = branching_partition(encode_concrete(segment3))
        assert class_sets(part) == {SEG_RED, SEG_BLUE}

    def test_strip4_has_exactly_the_four_classes(self, strip4):
        part = branching_partition(encode_concrete(strip4))
        assert class_sets(part) == STRIP_CLASSES

    def test_two_states_same_loops_collapse(self):
        lts = Lts(["x", "y"], [("x", "p", "x"), ("y", "p", "y")])
        assert len(branching_partition(lts)) == 1

    def test_tau_cycle_is_handled(self):
        lts = Lts(
            ["x", "y", "z"],
            [("x", TAU, "y"), ("y", TAU, "x"), ("x", "p", "z"), ("y", "p", "z")],
        )
        part = branching_partition(lts)
        assert part.same_class("x", "y")


class TestStrong:
    def test_abstract_segment3_is_identity(self, segment3):
        lts, _ = encode_abstract(segment3)
        part = strong_partition(lts)
        assert len(part) == 2

    def test_abstract_triangle_pulls_back_to_weak_classes(self, triangle):
        lts, comp = encode_abstract(triangle)
        pulled = pull_back(strong_partition(lts), comp)
        assert class_sets(pulled) == class_sets(weak_pm_partition(triangle))

    def test_no_transitions_one_class(self):
        lts = Lts(["a", "b", "c"], [])
        assert len(strong_partition(lts)) == 1

    def test_branching_is_coarser_or_equal(self):
        for _, p in random_posets(25):
            lts = encode_concrete(p)
            assert strong_partition(lts).refines(branching_partition(lts))


class TestWeakPm:
    def test_triangle(self, triangle):
        assert class_sets(weak_pm_partition(triangle)) == TRI_CLASSES

    def test_strip4(self, strip4):
        assert class_sets(weak_pm_partition(strip4)) == STRIP_CLASSES

    def test_antichain_distinct_atoms_is_identity(self):
        elements = [f"x{i}" for i in range(4)]
        p = PosetModel(elements, [], {e: [f"p{i}"] for i, e in enumerate(elements)})
        assert len(weak_pm_partition(p)) == 4

    def test_result_is_a_weak_bisimulation(self, segment3, triangle, strip4):
        for p in (segment3, triangle, strip4):
            assert is_weak_pm_bisimulation(p, weak_pm_partition(p))

    def test_valuation_partition_usually_is_not(self, strip4):
        # sanity for the checker above: the split of grey A away from the
        # other greys is forced, so the raw valuation partition fails
        by_val = {}
        for w in strip4.elements:
            by_val.setdefault(strip4.valuation_of(w), []).append(w)
        part = Partition.from_blocks(strip4.elements, by_val.values())
        assert not is_weak_pm_bisimulation(strip4, part)


class TestPipelineAgreement:
    def test_three_routes_agree_on_fixtures(self, segment3, triangle, strip4):
        for p in (segment3, triangle, strip4):
            direct = weak_pm_partition(p)
            concrete = branching_partition(encode_concrete(p))
            lts, comp = encode_abstract(p)
            pulled = pull_back(strong_partition(lts), comp)
            assert direct == concrete == pulled

    def test_three_routes_agree_on_random_models(self):
        for seed, p in random_posets(30):
            direct = weak_pm_partition(p)
            concrete = branching_partition(encode_concrete(p))
            lts, comp = encode_abstract(p)
            pulled = pull_back(strong_partition(lts), comp)
            assert direct == concrete == pulled, seed

    def test_eta_pure_sat_sets_are_unions_of_classes(self):
        for seed, p in random_posets(25):
            part = weak_pm_partition(p)
            f = random_formula(seed + 123, 3, list(p.atoms) or ["p0"])
            extension = sat(p, f).members
            rebuilt = frozenset(
                w
                for block in part.classes
                if block & extension == block
                for w in block
            )
            assert rebuilt == extension, (seed, f)

    def test_gamma_set_is_not_a_union_of_classes(self, triangle):
        part = weak_pm_partition(triangle)
        extension = sat(triangle, parse_formula("gamma(red, true)")).members
        assert "A" in extension and "A-B-C" not in extension
        assert part.same_class("A", "A-B-C")
        touched = [block for block in part.classes if block & extension]
        assert any(block & extension != block for block in touched)


class TestQuotient:
    def test_segment3_quotient_d_transitions(self, segment3):
        lts = encode_concrete(segment3)
        part = branching_partition(lts)
        q = quotient_lts(lts, part)
        red = part.names[part.class_of("D")]
        blue = part.names[part.class_of("E")]
        d_edges = {(s, t) for s, lab, t in q.transitions if lab == DOWN}
        assert d_edges == {(red, red), (blue, blue), (red, blue)}

    def test_identity_partition_is_isomorphic(self, segment3):
        lts = encode_concrete(segment3)
        part = Partition.from_blocks(lts.states, [[s] for s in lts.states])
        q = quotient_lts(lts, part)
        assert len(q.states) == len(lts.states)
        assert len(q.transitions) == len(lts.transitions)

    def test_all_in_one_partition(self, segment3):
        lts = encode_concrete(segment3)
        part = Partition.from_blocks(lts.states, [list(lts.states)])
        q = quotient_lts(lts, part)
        assert len(q.states) == 1
        assert {lab for _, lab, _ in q.transitions} == {"red", "blue", TAU, CHANGE, DOWN}

    def test_trim_tau_self_loops(self, segment3):
        lts = encode_concrete(segment3)
        part = branching_partition(lts)
        q = quotient_lts(lts, part, drop_tau_self_loops=True)
        assert not any(
            lab == TAU and s == t for s, lab, t in q.transitions
        )

    def test_partition_mismatch_rejected(self, segment3, triangle):
        lts = encode_concrete(segment3)
        part = branching_partition(encode_concrete(triangle))
        with pytest.raises(ValueError):
            quotient_lts(lts, part)


class TestDeterminism:
    def test_identical_runs_identical_class_order(self, strip4):
        a = branching_partition(encode_concrete(strip4))
        b = branching_partition(encode_concrete(strip4))
        assert a.classes == b.classes
        assert a.names == b.names

    def test_class_order_follows_least_member(self, strip4):
        part = weak_pm_partition(strip4)
        firsts = [min(c, key=strip4.index_of) for c in part.classes]
        assert firsts == sorted(firsts, key=strip4.index_of)


class TestAut:
    def test_segment3_header(self, segment3):
        text = to_aut(encode_concrete(segment3))
        assert text.splitlines()[0] == "des (0,27,5)"

    def test_one_element_header(self):
        text = to_aut(encode_concrete(one_point_poset()))
        assert text.splitlines()[0] == "des (0,3,1)"

    def test_round_trip_is_isomorphic(self, segment3):
        lts = encode_concrete(segment3)
        text = to_aut(lts)
        back = from_aut(text)
        assert len(back.states) == len(lts.states)
        index = {str(i): s for i, s in enumerate(lts.states)}
        mapped = {(index[s], lab, index[t]) for s, lab, t in back.transitions}
        assert mapped == set(lts.transitions)
        assert to_aut(back) == text

    def test_bad_header_rejected(self):
        from polymin.bisim import AutFormatError

        with pytest.raises(AutFormatError):
            from_aut("nonsense (0,1,2)")

    def test_wrong_count_rejected(self):
        from polymin.bisim import AutFormatError

        with pytest.raises(AutFormatError):
            from_aut('des (0,2,1)\n(0,"a",0)\n')
