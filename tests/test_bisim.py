import os
import subprocess
import sys
from array import array
from itertools import combinations
from pathlib import Path

import pytest

import polymin
from polymin import (
    cell_poset,
    components_same_valuation,
    distinguishing_formula,
    encode_abstract,
    encode_concrete,
    format_formula,
    load_simplicial_model,
    minimal_model,
    random_model,
    parse_formula,
    sat,
    strong_partition,
    to_aut,
    weak_pm_partition,
)
from polymin.bisim import (
    CHANGE,
    DOWN,
    LabelError,
    Partition,
    STEP,
    TAU,
    abstract_tables,
    branching_quotient,
    is_branching_minimal,
    pull_back,
    refine,
)
from polymin.minimize import _Refinement

from oracles import (
    as_moves, as_partition, aut_by_sorted_triples, aut_moves, branching_partition, class_names,
    encode_abstract_by_pairs, encode_concrete_by_rule, is_weak_pm_bisimulation, n_blocks,
    named_transitions, poset_from_covers, quotient_lts, quotient_succ_by_pairs, random_formula,
    strong_rounds_by_pairs, transitions, valuation_split, weak_pm_by_signatures,
)

from conftest import load_fixture, random_posets
from families import corridor_document, gen, kuhn3d_document, maze_document


def maze_grid(n):
    """The benchmark's seeded maze on an n x n grid, as a cell poset."""
    return cell_poset(load_simplicial_model(maze_document(n)))


def class_sets(partition):
    return {frozenset(c) for c in partition.classes}


def count_label(lts, label):
    return sum(lab == label for ms in lts for lab, _ in ms)


def refines(fine, coarse):
    """Every block of the table ``fine`` fits inside a block of ``coarse``."""
    image = {}
    return all(image.setdefault(a, b) == b for a, b in zip(fine, coarse))


def renumbered(universe, block):
    """The partition with ``block``'s classes, numbered in order of first member."""
    first = {}
    return Partition(universe, tuple(first.setdefault(k, len(first)) for k in block))


def certified(p, part):
    quotient = branching_quotient(p, part.block)
    return quotient is not None and is_branching_minimal(quotient)


def one_point_poset(atom="p"):
    return poset_from_covers(["A"], array("i"), [{atom}], [atom])


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


class TestPartition:
    def test_class_count_is_computed_once(self):
        # map_back reads len(partition) once per class number of an answer
        class Scanned(tuple):
            scans = 0

            def __iter__(self):
                Scanned.scans += 1
                return super().__iter__()

        part = Partition(("a", "b", "c"), Scanned((0, 1, 0)))
        assert [len(part) for _ in range(3)] == [2, 2, 2]
        assert Scanned.scans == 1


class TestEncodeConcrete:
    def test_segment3_transition_counts(self, segment3):
        lts = encode_concrete(segment3)
        assert len(lts) == 5
        assert len(transitions(lts)) == 27
        atom_loops = sum(
            1 for _, lab, _ in transitions(lts) if lab not in (TAU, CHANGE, DOWN)
        )
        assert atom_loops == 5
        assert count_label(lts, TAU) == 11
        assert count_label(lts, CHANGE) == 2
        assert count_label(lts, DOWN) == 9

    def test_segment3_specific_transitions(self, segment3):
        transitions = named_transitions(encode_concrete(segment3), segment3.elements)
        assert ("D-E", CHANGE, "E") in transitions
        assert ("E", CHANGE, "D-E") in transitions
        assert ("D-E", DOWN, "E") in transitions
        assert ("E", DOWN, "D-E") not in transitions

    def test_one_element_poset(self):
        p = one_point_poset()
        assert set(named_transitions(encode_concrete(p), p.elements)) == {
            ("A", "p", "A"), ("A", TAU, "A"), ("A", DOWN, "A")
        }

    def test_down_uses_full_order_not_covers(self, strip4):
        transitions = named_transitions(encode_concrete(strip4), strip4.elements)
        # D sits two levels below D-E-F; the down transition is still direct
        assert ("D-E-F", DOWN, "D") in transitions

    def test_reserved_label_clash_rejected(self):
        with pytest.raises(LabelError):
            encode_concrete(one_point_poset("tau"))


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
        p = poset_from_covers(["a", "b", "ab"], array("i", [0, 2, 1, 2]), [{"p"}] * 3, ["p"])
        assert len(components_same_valuation(p)) == 1

    def test_refines_weak_partition(self):
        for _, p in random_posets(25):
            assert refines(components_same_valuation(p).block, weak_pm_partition(p).block)


class TestEncodeAbstract:
    def test_segment3(self, segment3):
        lts, part = encode_abstract(segment3)
        assert len(lts) == 2
        assert len(transitions(lts)) == 9
        assert count_label(lts, STEP) == 4
        assert count_label(lts, DOWN) == 3
        assert class_sets(part) == {SEG_RED, SEG_BLUE}
        red = part.block[segment3.index_of("D")]
        blue = part.block[segment3.index_of("E")]
        assert (red, frozenset({"red"}), red) in transitions(lts)
        assert (red, DOWN, blue) in transitions(lts)
        assert (blue, DOWN, red) not in transitions(lts)

    def test_one_element_poset(self):
        lts, _ = encode_abstract(one_point_poset())
        assert len(lts) == 1
        assert len(transitions(lts)) == 3

    def test_strip4_state_count(self, strip4):
        lts, _ = encode_abstract(strip4)
        assert len(lts) == len(components_same_valuation(strip4)) == 4

    def test_state_count_matches_components(self):
        for _, p in random_posets(20):
            lts, part = encode_abstract(p)
            assert len(lts) == len(components_same_valuation(p))
            assert part == components_same_valuation(p)


class TestBranching:
    def test_segment3(self, segment3):
        part = as_partition(segment3, branching_partition(encode_concrete(segment3)))
        assert class_sets(part) == {SEG_RED, SEG_BLUE}

    def test_strip4_has_exactly_the_four_classes(self, strip4):
        part = as_partition(strip4, branching_partition(encode_concrete(strip4)))
        assert class_sets(part) == STRIP_CLASSES

    def test_two_states_same_loops_collapse(self):
        lts = as_moves([{("p", 0)}, {("p", 1)}])
        assert n_blocks(branching_partition(lts)) == 1

    def test_tau_cycle_is_handled(self):
        lts = as_moves([{(TAU, 1), ("p", 2)}, {(TAU, 0), ("p", 2)}, set()])
        block = branching_partition(lts)
        assert block[0] == block[1]


class TestCertificate:
    def test_accepts_exactly_the_minimal_partition(self):
        splits = merges = 0
        for seed, p in random_posets(300, max_cells=30, n_vertices=5):
            part = minimal_model(p).partition
            assert certified(p, part), seed
            for w, k in enumerate(part.block):
                if len(part.classes[k]) > 1:
                    split = part.block[:w] + (len(part),) + part.block[w + 1:]
                    assert not certified(p, renumbered(p.elements, split)), (seed, w)
                    splits += 1
            for a, b in combinations(range(len(part)), 2):
                if p.valuations[part.block.index(a)] == p.valuations[part.block.index(b)]:
                    merged = tuple(a if k == b else k for k in part.block)
                    assert not certified(p, renumbered(p.elements, merged)), (seed, a, b)
                    merges += 1
        assert splits > 1000 and merges > 500

    def test_stability_rejects_a_merge(self, strip4):
        part = minimal_model(strip4).partition
        a, b = (part.block[strip4.index_of(w)] for w in ("A", "B"))
        merged = renumbered(strip4.elements, [a if k == b else k for k in part.block])
        assert branching_quotient(strip4, part.block) is not None
        assert branching_quotient(strip4, merged.block) is None

    @pytest.mark.parametrize("p", [
        poset_from_covers(["A", "B"], array("i"), [{"p"}] * 2, ["p"]),
        poset_from_covers(
            ["a", "b", "ab"], array("i", [0, 2, 1, 2]), [{"p"}, {"q"}, {"p"}], ["p", "q"]
        ),
    ], ids=["strong-split", "tau-between-classes"])
    def test_minimality_rejects_a_stable_split(self, p):
        discrete = branching_quotient(p, tuple(range(len(p))))
        assert discrete is not None
        assert not is_branching_minimal(discrete)
        assert is_branching_minimal(branching_quotient(p, minimal_model(p).partition.block))

    def test_quotient_states_are_block_numbers(self):
        # blocks numbered against the order of their first states
        p = poset_from_covers(["a", "b"], array("i", [0, 1]), [{"p"}, {"q"}], ["p", "q"])
        part = Partition(p.elements, (1, 0))
        quotient = branching_quotient(p, part.block)
        assert quotient == quotient_lts(encode_concrete(p), part)


class TestStrong:
    def test_abstract_segment3_is_identity(self, segment3):
        lts, _ = encode_abstract(segment3)
        block = strong_partition(lts)
        assert n_blocks(block) == 2

    def test_abstract_triangle_pulls_back_to_weak_classes(self, triangle):
        lts, comp = encode_abstract(triangle)
        pulled = pull_back(strong_partition(lts), comp)
        assert class_sets(pulled) == class_sets(weak_pm_partition(triangle))

    def test_pull_back_rejects_a_table_of_another_length(self, triangle):
        lts, comp = encode_abstract(triangle)
        with pytest.raises(ValueError):
            pull_back(strong_partition(lts) + (0,), comp)

    def test_no_transitions_one_class(self):
        lts = as_moves([set()] * 3)
        assert n_blocks(strong_partition(lts)) == 1

    @pytest.mark.parametrize("moves", [
        [],
        [set()],
        # "a" loops on 1 and 2 and moves elsewhere from 0
        [{("a", 3)}, {("a", 1)}, {("a", 2), ("b", 0)}, set()],
        [{("a", 1), ("a", 0)}, {("a", 1)}, {("a", 2), ("b", 2)}],
        # every label only loops
        [{("p", 0)}, {("q", 1)}, {("p", 2)}, {("p", 3), ("q", 3)}, set()],
    ], ids=["no-states", "one-state", "loop-or-move", "loop-then-split", "only-loops"])
    def test_edge_cases_match_the_oracle(self, moves):
        lts = as_moves(moves)
        *_, stable = strong_rounds_by_pairs(lts)
        assert strong_partition(lts) == tuple(stable)

    def test_branching_is_coarser_or_equal(self):
        for _, p in random_posets(25):
            lts = encode_concrete(p)
            assert refines(strong_partition(lts), branching_partition(lts))


class TestRefine:
    def test_a_discrete_table_is_one_round(self):
        rounds = refine([0, 1, 2], ([[1], [2], []],))
        assert [(list(b), k) for b, k in rounds] == [([0, 1, 2], None)]

    def test_a_table_discrete_after_two_rounds(self):
        # a chain under one label, and one move back to the first state under another
        rounds = refine([0, 0, 0, 0], ([[1], [2], [3], []], [[], [0], [], []]))
        e = frozenset()
        assert [(list(b), k and list(k.items())) for b, k in rounds] == [
            ([0, 0, 0, 0], None),
            ([0, 1, 0, 2], [((0, {0}, e), 0), ((0, {0}, {0}), 1), ((0, e, e), 2)]),
            ([0, 1, 2, 3], [((0, {1}, e), 0), ((1, None, None), 1), ((0, {2}, e), 2),
                            ((2, None, None), 3)]),
        ]


class TestWeakPm:
    def test_triangle(self, triangle):
        assert class_sets(weak_pm_partition(triangle)) == TRI_CLASSES

    def test_strip4(self, strip4):
        assert class_sets(weak_pm_partition(strip4)) == STRIP_CLASSES

    def test_antichain_distinct_atoms_is_identity(self):
        elements = [f"x{i}" for i in range(4)]
        atoms = [f"p{i}" for i in range(4)]
        p = poset_from_covers(elements, array("i"), [{a} for a in atoms], atoms)
        assert len(weak_pm_partition(p)) == 4

    def test_result_is_a_weak_bisimulation(self, segment3, triangle, strip4):
        for p in (segment3, triangle, strip4):
            assert is_weak_pm_bisimulation(p, weak_pm_partition(p))

    def test_valuation_partition_usually_is_not(self, strip4):
        # sanity for the checker above: the split of grey A away from the
        # other greys is forced, so the raw valuation partition fails
        first = {}
        by_val = tuple(first.setdefault(v, len(first)) for v in strip4.valuations)
        part = Partition(strip4.elements, by_val)
        assert not is_weak_pm_bisimulation(strip4, part)

    def test_signature_refinement_is_the_direct_fixpoint(self, segment3, triangle, strip4):
        models = [segment3, triangle, strip4]
        models += [cell_poset(random_model(seed, 6, 3, 2)) for seed in range(40)]
        models += [cell_poset(random_model(seed, 5, 2, 3)) for seed in range(20)]
        models += [maze_grid(n) for n in (2, 3)]
        models += [cell_poset(load_simplicial_model(corridor_document(k))) for k in range(2, 7)]
        # perfbench's smaller selfcheck-explain grid
        selfcheck = gen.grid_document(3, "selfcheck", vary_rooms=False)
        models += [cell_poset(load_simplicial_model(selfcheck))]
        for k, p in enumerate(models):
            assert weak_pm_by_signatures(p) == weak_pm_partition(p), k

    def test_signature_refinement_gives_the_minimal_models_classes(self):
        # the direct fixpoint takes tens of seconds from kuhn3d 2 on
        documents = [maze_document(n) for n in (4, 8, 12, 16)]
        documents += [corridor_document(60), kuhn3d_document(3, 1), kuhn3d_document(4, 1)]
        for document in documents:
            p = cell_poset(load_simplicial_model(document))
            assert weak_pm_by_signatures(p) == minimal_model(p).partition


class TestPipelineAgreement:
    def test_three_routes_agree_on_fixtures(self, segment3, triangle, strip4):
        for p in (segment3, triangle, strip4):
            direct = weak_pm_partition(p)
            concrete = as_partition(p, branching_partition(encode_concrete(p)))
            lts, comp = encode_abstract(p)
            pulled = pull_back(strong_partition(lts), comp)
            assert direct == concrete == pulled

    def test_three_routes_agree_on_random_models(self):
        for seed, p in random_posets(30):
            direct = weak_pm_partition(p)
            concrete = as_partition(p, branching_partition(encode_concrete(p)))
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
        assert part.block[triangle.index_of("A")] == part.block[triangle.index_of("A-B-C")]
        touched = [block for block in part.classes if block & extension]
        assert any(block & extension != block for block in touched)


class TestQuotient:
    def test_segment3_quotient_d_transitions(self, segment3):
        lts = encode_concrete(segment3)
        part = as_partition(segment3, branching_partition(lts))
        q = quotient_lts(lts, part)
        red = part.block[segment3.index_of("D")]
        blue = part.block[segment3.index_of("E")]
        d_edges = {(s, t) for s, lab, t in transitions(q) if lab == DOWN}
        assert d_edges == {(red, red), (blue, blue), (red, blue)}

    def test_identity_partition_is_isomorphic(self, segment3):
        lts = encode_concrete(segment3)
        part = Partition(segment3.elements, tuple(range(len(lts))))
        q = quotient_lts(lts, part)
        assert len(q) == len(lts)
        assert len(transitions(q)) == len(transitions(lts))

    def test_all_in_one_partition(self, segment3):
        lts = encode_concrete(segment3)
        part = Partition(segment3.elements, (0,) * len(lts))
        q = quotient_lts(lts, part)
        assert len(q) == 1
        assert {lab for _, lab, _ in transitions(q)} == {"red", "blue", TAU, CHANGE, DOWN}

    def test_trim_tau_self_loops(self, segment3):
        # the quotient's only tau moves are one self-loop per class: they
        # are what --trim-self-tau drops
        part = as_partition(segment3, branching_partition(encode_concrete(segment3)))
        q = branching_quotient(segment3, part.block)
        assert {(s, t) for s, lab, t in transitions(q) if lab == TAU} == {(0, 0), (1, 1)}

    def test_partition_mismatch_rejected(self, segment3, triangle):
        lts = encode_concrete(segment3)
        part = as_partition(triangle, branching_partition(encode_concrete(triangle)))
        with pytest.raises(ValueError):
            quotient_lts(lts, part)


class TestDeterminism:
    def test_identical_runs_identical_class_order(self, strip4):
        a = as_partition(strip4, branching_partition(encode_concrete(strip4)))
        b = as_partition(strip4, branching_partition(encode_concrete(strip4)))
        assert a.classes == b.classes
        assert class_names(a) == class_names(b)

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
        assert aut_moves(to_aut(lts)) == list(map(set, lts))

    def test_a_label_that_is_no_string_is_named(self, strip4):
        # the abstract encoding loops on valuation sets, which .aut cannot spell
        with pytest.raises(LabelError) as exc:
            to_aut(encode_abstract(strip4)[0])
        assert str(exc.value) == "state 0 has a label of type frozenset, not a string"

    def test_the_label_error_does_not_depend_on_the_hash_seed(self):
        code = (
            "from polymin import to_aut\n"
            "try:\n"
            "    to_aut((frozenset({('p', 0)}), frozenset({(frozenset({'a', 'b'}), 1), (2, 0)})))\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        src = str(Path(polymin.__file__).parent.parent)
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("1", "2", "3")
        }
        assert outputs == {"LabelError state 1 has a label of type frozenset, not a string\n"}

    @pytest.mark.parametrize("states", [
        [{('a"b', 0)}],
        [{("a\nb", 0)}],
        [{("a\u2028b", 0)}],
        [{("a\ud800b", 0)}],
        # two bad labels in one state: the first in output order is named
        [{("q", 0), ('b"', 0), ('a"', 0)}],
        [{("q", 0), ("b\ud800", 0), ("a\udfff", 0)}],
        # every quote or line break is reported before any lone surrogate
        [{("a\ud800", 0)}, {('z"', 0)}],
        [{("p", 1)}, {("p", 0), ("a\ud800", 1), ("b\n", 0)}],
    ], ids=["quote", "line-feed", "line-separator", "lone-surrogate", "two-quotes",
            "two-surrogates", "surrogate-then-quote", "surrogate-then-line-feed"])
    def test_label_errors_match_the_reference(self, states):
        moves = as_moves(states)
        with pytest.raises(LabelError) as expected:
            aut_by_sorted_triples(moves)
        with pytest.raises(LabelError) as exc:
            to_aut(moves)
        assert str(exc.value) == str(expected.value)


ORACLE_FAMILIES = {
    "fixtures": lambda: [cell_poset(load_fixture(f"{stem}.json"))
                         for stem in ("segment3", "triangle_abc", "strip4")],
    "random": lambda: [p for _, p in random_posets(200, max_cells=40, n_vertices=7, max_dim=3)],
    "grids": lambda: [maze_grid(n) for n in range(3, 23)],
    "corridor": lambda: [cell_poset(load_simplicial_model(corridor_document(50)))],
    "kuhn3d": lambda: [cell_poset(load_simplicial_model(kuhn3d_document(3, 1)))],
}


class TestNumberedTables:
    """The abstract encoding, the refinement rounds and the quotient relation
    are read from numbered component tables; the oracles read every order
    pair and every move."""

    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_tables_match_the_pair_oracles(self, family):
        for p in ORACLE_FAMILIES[family]():
            lts, components = encode_abstract(p)
            reference = encode_abstract_by_pairs(p)
            assert lts == reference
            rounds = [list(block) for block in strong_rounds_by_pairs(reference)]
            # the oracle starts from one block, refine from the valuation split
            _, valuations, step, down = abstract_tables(p)
            split = valuation_split(valuations)
            refined = [list(block) for block, _ in refine(split, (step, down))]
            if max(split, default=0) > 0:
                refined.insert(0, [0] * len(split))
            assert refined == rounds
            assert strong_partition(lts) == tuple(rounds[-1])
            mm = minimal_model(p)
            assert mm.partition == pull_back(tuple(rounds[-1]), components)
            assert mm.kripke.succ == quotient_succ_by_pairs(p, mm.partition)

    @pytest.mark.parametrize("family", [*ORACLE_FAMILIES, "one-valuation", "discrete"])
    def test_split_tree_leaves_are_the_minimal_classes(self, family):
        # leaves numbered in order of first cell, which is the order of
        # first component, as the classes are
        models = {
            **ORACLE_FAMILIES,
            "one-valuation": lambda: [cell_poset(random_model(3, 5, 2, 0))],
            "discrete": lambda: [cell_poset(random_model(223, 6, 3, 3))],
        }
        for p in models[family]():
            tree = _Refinement(p)
            first: dict[int, int] = {}
            leaves = tuple(first.setdefault(tree.leaf[k], len(first)) for k in tree.partition.block)
            assert leaves == minimal_model(p).partition.block
            if family == "one-valuation":
                assert len(p) > 1 and tree.parent == [-1]
            if family == "discrete":  # split past the valuations
                assert len(first) == len(p) > len(set(p.valuations)) > 1

    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_concrete_encoding_matches_the_rule(self, family):
        for p in ORACLE_FAMILIES[family]():
            assert encode_concrete(p) == encode_concrete_by_rule(p)

    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_aut_text_matches_one_sort_of_every_triple(self, family):
        # the concrete encoding, the certified quotient and the quotient
        # without its tau self-loops, as minimize --emit-aut writes them
        for p in ORACLE_FAMILIES[family]():
            quotient = branching_quotient(p, minimal_model(p).partition.block)
            trimmed = tuple(ms - {(TAU, k)} for k, ms in enumerate(quotient))
            for lts in (encode_concrete(p), quotient, trimmed):
                assert to_aut(lts) == aut_by_sorted_triples(lts)

    @pytest.mark.parametrize("family", ["random", "grids"])
    def test_quotient_strong_partition_matches_the_oracle(self, family):
        for p in ORACLE_FAMILIES[family]()[::10]:
            lts = encode_concrete(p)
            quotient = quotient_lts(lts, minimal_model(p).partition)
            *_, stable = strong_rounds_by_pairs(quotient)
            assert strong_partition(quotient) == tuple(stable)

    @pytest.mark.parametrize("family", ["fixtures", "random", "grids", "kuhn3d"])
    def test_branching_quotient_is_the_trimmed_projection(self, family):
        for p in ORACLE_FAMILIES[family]():
            lts = encode_concrete(p)
            part = minimal_model(p).partition
            assert branching_quotient(p, part.block) == quotient_lts(lts, part)
            # merging two classes of one valuation breaks stability
            valuation = dict(zip(part.block, p.valuations))
            for a, b in combinations(range(len(part)), 2):
                if valuation[a] == valuation[b]:
                    merged = renumbered(p.elements, [a if k == b else k for k in part.block])
                    assert branching_quotient(p, merged.block) is None
                    break


# Pinned witness texts for pairs of same-valued cells in different classes:
# the witness depends on every round table and on the order of its
# candidate literals, so any change to either shows here.
WITNESSES = [
    ("strip4", "A", "D", "!eta(!red & !green & grey,red & !green & !grey)"),
    ("random", "v1", "v11-v3", "eta(p0 & !p1,p0 & p1 & !eta(p0 & p1,p0 & !p1))"),
    ("random", "v3", "v5-v6-v7",
     "eta(p0 & p1,p0 & !p1 & !eta(p0 & !p1,p0 & p1 & !eta(p0 & p1,p0 & !p1)))"),
    ("random", "v6", "v2-v7-v8", "eta(!p0 & p1,p0 & p1 & !eta(p0 & p1,p0 & !p1))"),
    ("grid", "r0c0", "r0c4",
     "eta(wall & !floor & !goal | !wall & !floor & goal,!wall & !floor & goal)"),
    ("grid", "r0c4", "r2c0-r3c1",
     "!eta(wall & !floor & !goal | !wall & !floor & goal,!wall & !floor & goal)"),
    ("grid", "r1c2", "r3c3-r4c3-r4c4",
     "eta(wall & !floor & !goal | !wall & floor & !goal & !eta(!wall & floor & !goal,"
     "!wall & !floor & goal & !eta(!wall & !floor & goal,wall & !floor & !goal)),"
     "!wall & floor & !goal & !eta(!wall & floor & !goal,!wall & !floor & goal & "
     "!eta(!wall & !floor & goal,wall & !floor & !goal)))"),
    ("corridor", "x0y0", "x2y0",
     "eta(a & !b & !goal,!a & b & !goal & eta(!a & b & !goal,"
     "a & !b & !goal & eta(a & !b & !goal,!a & b & !goal)))"),
    ("corridor", "x0y0", "x4y0-x5y0", "eta(a & !b & !goal,!a & b & !goal)"),
    ("corridor", "x1y0", "x3y0-x3y1",
     "eta(!a & b & !goal,a & !b & !goal & eta(a & !b & !goal,!a & b & !goal))"),
]

WITNESS_MODELS = {
    "strip4": lambda: cell_poset(load_fixture("strip4.json")),
    "random": lambda: cell_poset(random_model(11, 12, 5, 2)),
    "grid": lambda: maze_grid(8),
    "corridor": lambda: cell_poset(load_simplicial_model(corridor_document(5))),
}


def test_witness_text_is_unchanged():
    posets = {name: make() for name, make in WITNESS_MODELS.items()}
    for name, a, b, text in WITNESSES:
        assert format_formula(distinguishing_formula(posets[name], a, b)) == text, (name, a, b)
