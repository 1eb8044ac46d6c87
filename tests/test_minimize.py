import json
import os
import random
import subprocess
import sys
import threading
import weakref
from array import array
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations, permutations
from pathlib import Path

import pytest

import polymin
from polymin import (
    bisim,
    cell_poset,
    distinguishing_formula,
    load_simplicial_model,
    map_back,
    minimal_model,
    minimize,
    random_model,
    sat,
    weak_pm_partition,
)
from polymin.bisim import DOWN, STEP, Partition
from polymin.checker import SatSet
from polymin.cli import main
from polymin.kripke import UnknownElementError
from polymin.logic import TOP, Not, Or, is_eta_pure
from polymin.minimize import UnknownClassError, _differences, _Refinement

import golden
from conftest import FIXTURES, concrete_d_relation, load_fixture, random_posets
from families import corridor_document, maze_document
from oracles import (
    _RoundLog, class_of_element, differences_by_entry, members_of, poset_from_covers,
    random_formula, relation_pairs, round_log_witness,
)


class TestMinimalModel:
    def test_segment3(self, segment3):
        mm = minimal_model(segment3)
        assert len(mm.partition) == 2
        red = class_of_element(mm, "D")
        blue = class_of_element(mm, "E")
        assert mm.partition.classes[int(red[1:])] == frozenset({"D", "D-E"})
        assert relation_pairs(mm.kripke) == frozenset(
            {(red, red), (blue, blue), (blue, red)}
        )
        assert mm.kripke.valuation_of(red) == frozenset({"red"})
        assert mm.kripke.valuation_of(blue) == frozenset({"blue"})

    def test_strip4(self, strip4):
        mm = minimal_model(strip4)
        assert len(mm.partition) == 4
        c1 = class_of_element(mm, "A")
        c2 = class_of_element(mm, "B")
        c3 = class_of_element(mm, "D")
        c4 = class_of_element(mm, "C-D-E")
        relation = relation_pairs(mm.kripke)
        assert {(c3, c2), (c2, c3), (c3, c3), (c1, c2), (c2, c4)} <= relation
        assert (c1, c4) not in relation

    def test_triangle_full_relation(self, triangle):
        mm = minimal_model(triangle)
        assert len(mm.partition) == 2
        assert len(relation_pairs(mm.kripke)) == 4

    def test_production_routes_skip_the_concrete_encoding(self, strip4, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the concrete route is an oracle only")

        monkeypatch.setattr(bisim, "encode_concrete", forbidden)
        assert len(minimal_model(strip4).partition) == 4
        assert distinguishing_formula(strip4, "A", "D") is not None

    def test_production_routes_make_no_class_names(
        self, segment3, triangle, strip4, tmp_path, monkeypatch
    ):
        # class names are made only where a file is written
        def forbidden(self):
            raise AssertionError("a production route named the classes")

        monkeypatch.setattr(Partition, "classes", property(forbidden))
        for stem, p in (("segment3", segment3), ("triangle_abc", triangle), ("strip4", strip4)):
            minimal_model(p)
            for a, b in combinations(p.elements, 2):
                distinguishing_formula(p, a, b)
            script = tmp_path / f"{stem}.txt"
            script.write_text(f'save "reach" eta(true, ap("{p.atoms[0]}"))\n')
            model = str(FIXTURES / f"{stem}.json")
            out = str(tmp_path / f"{stem}.results.json")
            assert main(["check", str(script), "--model", model, "--on-minimal", "-o", out]) == 0

    def test_refinement_is_looked_up_in_bisim(self, strip4_model, monkeypatch):
        # a tracer that wraps the refinement in polymin.bisim must see its
        # call; a fresh model, as a refined one keeps its refinement
        calls = []
        real = bisim.refine

        def counted(block, tables):
            calls.append(len(block))
            return real(block, tables)

        monkeypatch.setattr(bisim, "refine", counted)
        p = cell_poset(strip4_model)
        assert len(minimal_model(p).partition) == 4
        assert calls == [len(bisim.encode_abstract(p)[0])]

    def test_relation_is_reflexive(self):
        for _, p in random_posets(15):
            mm = minimal_model(p)
            for i, targets in enumerate(mm.kripke.succ):
                assert i in targets


class TestQuotientDRoute:
    def test_matches_on_fixtures(self, segment3, triangle, strip4):
        for p in (segment3, triangle, strip4):
            assert concrete_d_relation(p) == relation_pairs(minimal_model(p).kripke)

    def test_matches_on_random_models(self):
        for seed, p in random_posets(30):
            assert concrete_d_relation(p) == relation_pairs(minimal_model(p).kripke), seed

    def test_one_element_poset(self):
        p = poset_from_covers(["A"], array("i"), [["p"]], ["p"])
        assert concrete_d_relation(p) == frozenset({("C0", "C0")})


class TestMapBack:
    def test_red_class_vector(self, segment3):
        mm = minimal_model(segment3)
        red = mm.kripke.index_of(class_of_element(mm, "D"))
        result = SatSet(mm.kripke, frozenset({red}), TOP)
        assert map_back(mm, result) == [True, False, False, True, False]

    def test_empty_and_full(self, strip4):
        mm = minimal_model(strip4)
        assert map_back(mm, SatSet(mm.kripke, frozenset(), TOP)) == [False] * 19
        everything = frozenset(range(len(mm.kripke)))
        assert map_back(mm, SatSet(mm.kripke, everything, TOP)) == [True] * 19

    def test_unknown_class_rejected(self, segment3):
        mm = minimal_model(segment3)
        with pytest.raises(UnknownClassError):
            map_back(mm, SatSet(mm.kripke, frozenset({9}), TOP))

    @pytest.mark.parametrize("model", ["other quotient", "source"])
    def test_answer_from_another_model_rejected(self, segment3, strip4, model):
        # element 0 exists in every model, so only the model the answer was
        # computed on tells it apart
        mm = minimal_model(segment3)
        other = minimal_model(strip4).kripke if model == "other quotient" else segment3
        with pytest.raises(UnknownClassError):
            map_back(mm, SatSet(other, frozenset({0}), TOP))


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
                if part.block[p.index_of(a)] == part.block[p.index_of(b)]:
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
                if part.block[p.index_of(a)] == part.block[p.index_of(b)]:
                    assert f is None, (seed, a, b)
                else:
                    assert f is not None and is_eta_pure(f), (seed, a, b)
                    extension = sat(p, f).members
                    assert a in extension and b not in extension, (seed, a, b, f)

    def test_refinement_agrees_with_direct_fixpoint(self):
        for seed, p in random_posets(20):
            tree = _Refinement(p)
            # a cell is under its class's leaf and under every ancestor of it
            cells: list[set[str]] = [set() for _ in tree.parent]
            for w, n in zip(p.elements, map(tree.leaf.__getitem__, tree.partition.block)):
                while n >= 0:
                    cells[n].add(w)
                    n = tree.parent[n]
            tree.build(len(tree.parent) - 1)
            for n, extension in enumerate(cells):
                assert sat(p, tree._formulas[n][1]).members == extension, (seed, n)
            leaves = {frozenset(cells[n]) for n in tree.leaf}
            assert leaves == set(weak_pm_partition(p).classes), seed

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

    def test_long_refinement_builds_its_witness_without_recursion(self):
        # Corridor columns 0 and 2 part in the last of about k rounds.  The
        # child allows 100 frames beyond its depth at the call, fewer than
        # there are rounds, so a build that recurses once a round fails.  The
        # witness is never printed: its tree is astronomically large.
        k = 200
        program = (
            "import inspect, sys\n"
            "from polymin import cell_poset, distinguishing_formula, load_simplicial_model\n"
            "from polymin import minimal_model, sat\n"
            "p = cell_poset(load_simplicial_model(sys.stdin.read()))\n"
            "sys.setrecursionlimit(len(inspect.stack(0)) + 100)\n"
            "extension = sat(p, distinguishing_formula(p, 'x0y0', 'x2y0'))\n"
            "print('x0y0' in extension, 'x2y0' in extension, len(minimal_model(p).kripke))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", program], input=corridor_document(k),
            env={**os.environ, "PYTHONPATH": str(Path(polymin.__file__).parent.parent)},
            capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.split() == ["True", "False", str(k + 1)]

    def test_repeated_witness_is_one_object(self):
        # 799 levels deep: equal witnesses are one node, compared in O(1)
        p = cell_poset(load_simplicial_model(corridor_document(400)))
        witness = distinguishing_formula(p, "x0y0", "x2y0")
        assert distinguishing_formula(p, "x0y0", "x2y0") is witness
        assert witness.depth == 799


def same_valuation_pairs(p, k):
    """About ``k`` same-valuation pairs, evenly spread; some may share a class."""
    pairs = [
        (a, b) for a, b in combinations(p.elements, 2) if p.valuation_of(a) == p.valuation_of(b)
    ]
    return pairs[:: max(1, len(pairs) // k)]


class TestSharedLog:
    """One record per model, built by one refinement and kept as long as the
    model is; minimal_model and distinguishing_formula both read it."""

    def test_many_pairs_refine_once(self, monkeypatch):
        calls = []
        for name in ("abstract_tables", "refine"):
            def counted(*args, real=getattr(bisim, name), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(bisim, name, counted)
        p = cell_poset(load_simplicial_model(maze_document(5)))
        witnesses = [distinguishing_formula(p, a, b) for a, b in same_valuation_pairs(p, 20)]
        assert sum(f is not None for f in witnesses) >= 5
        assert calls == ["abstract_tables", "refine"]

    def test_witnesses_match_a_fresh_model(self):
        makers = [lambda s=seed: cell_poset(random_model(s, 6, 3, 2)) for seed in range(12)]
        for doc in (maze_document(3), maze_document(5), corridor_document(60)):
            makers.append(lambda doc=doc: cell_poset(load_simplicial_model(doc)))
        for make in makers:
            p = make()
            for a, b in same_valuation_pairs(p, 12):
                # equal formulas are one object, so equal text; corridor
                # witnesses are too large as trees to print
                assert distinguishing_formula(p, a, b) is distinguishing_formula(make(), a, b)

    @pytest.mark.parametrize("order", [("minimize", "explain"), ("explain", "minimize")])
    def test_minimal_model_and_witnesses_refine_once(self, monkeypatch, order):
        calls = []
        for name in ("abstract_tables", "refine"):
            def counted(*args, real=getattr(bisim, name), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(bisim, name, counted)
        p = cell_poset(load_simplicial_model(corridor_document(8)))
        steps = {
            "minimize": lambda: len(minimal_model(p).partition) == 9,
            "explain": lambda: distinguishing_formula(p, "x0y0", "x2y0") is not None,
        }
        for step in order:
            assert steps[step]()
        assert calls == ["abstract_tables", "refine"]
        # later minimal_model calls wrap the same record, each in a new MinimalModel
        mm1, mm2 = minimal_model(p), minimal_model(p)
        assert mm1 is not mm2 and mm1.kripke is mm2.kripke and mm2.source is p
        assert calls == ["abstract_tables", "refine"]

    def test_log_is_freed_with_its_model(self):
        # the record is a weak dictionary's value: one that held the model, or
        # a MinimalModel, whose source is the model, would keep its key alive
        for minimised in (False, True):
            p = cell_poset(load_simplicial_model(corridor_document(5)))
            logs = len(minimize._LOGS)
            if minimised:
                assert len(minimal_model(p).partition) == 6
            assert distinguishing_formula(p, "x0y0", "x2y0") is not None
            assert len(minimize._LOGS) == logs + 1
            model = weakref.ref(p)
            del p
            assert model() is None
            assert len(minimize._LOGS) == logs

    def test_threads_get_the_serial_witnesses(self):
        doc = maze_document(5)
        p = cell_poset(load_simplicial_model(doc))
        # both orders, and many cell pairs to each sibling pair, asked in a
        # different order by each thread: the threads race on the memo too
        pairs = [(x, y) for a, b in same_valuation_pairs(p, 30) for x, y in ((a, b), (b, a))]
        serial = [distinguishing_formula(p, a, b) for a, b in pairs]
        shared = cell_poset(load_simplicial_model(doc))
        start = threading.Barrier(4)

        def explain(k):
            order = random.Random(k).sample(range(len(pairs)), len(pairs))
            start.wait(timeout=60)  # every thread misses the log at once
            found = [None] * len(pairs)
            for n in order:
                found[n] = distinguishing_formula(shared, *pairs[n])
            return found

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                runs = [pool.submit(explain, k) for k in range(4)]
                results = [run.result(timeout=60) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        for found in results:
            assert all(f is s for f, s in zip(found, serial))
        assert sum(f is not None for f in serial) >= 10


class TestSplitTree:
    def test_witnesses_are_the_round_logs(self):
        # the round log keeps every round's block table; the split tree
        # must pick the same literal, one hash-consed object, for each pair
        models = [cell_poset(load_fixture(f"{stem}.json"))
                  for stem in ("segment3", "triangle_abc", "strip4")]
        models += [cell_poset(random_model(seed, 6, 3, 2)) for seed in range(40)]
        models += [cell_poset(load_simplicial_model(maze_document(n))) for n in range(3, 9)]
        models.append(cell_poset(load_simplicial_model(corridor_document(60))))
        separated = 0
        for k, p in enumerate(models):
            log = _RoundLog(p)
            for a, b in same_valuation_pairs(p, 80):
                for x, y in ((a, b), (b, a)):
                    witness = distinguishing_formula(p, x, y)
                    assert witness is round_log_witness(log, p, x, y), (k, x, y)
                    separated += witness is not None
        assert separated > 1500, separated


def sibling_pair(r, i, j):
    """The children of the lowest common ancestor of two cells' leaves in
    the record's split tree, by their paths from the root; None for a
    shared leaf."""
    def path(i):
        m, out = r.leaf[r.partition.block[i]], []
        while m >= 0:
            out.append(m)
            m = r.parent[m]
        return out[::-1]

    return next(((a, b) for a, b in zip(path(i), path(j)) if a != b), None)


def literal_calls(lit):
    """The ``Eta``, ``Or`` and ``Not`` calls that build one of ``separate``'s
    literals, sorted: a ``d`` literal's condition is a valuation formula,
    which holds no ``Or``."""
    calls = []
    if isinstance(lit, Not):
        calls.append("Not")
        lit = lit.operand
    return sorted(calls + ["Eta"] + ["Or"] * isinstance(lit.condition, Or))


class TestSeparate:
    """separate ranks its candidates by a size computed from their operands
    and builds only the literals it keeps."""

    def test_rank_is_the_literal_size(self):
        models = [cell_poset(load_fixture(f"{stem}.json"))
                  for stem in ("segment3", "triangle_abc", "strip4")]
        models += [cell_poset(random_model(seed, 6, 3, 2)) for seed in range(40)]
        models += [cell_poset(load_simplicial_model(maze_document(n))) for n in range(3, 9)]
        models.append(cell_poset(load_simplicial_model(corridor_document(60))))
        kinds = set()
        for p in models:
            r = _Refinement(p)
            r.build(len(r.parent) - 1)
            for m, up in enumerate(r.parent):
                if up <= 0:  # pinned by its valuation
                    continue
                v, own = r._formulas[up][0], r.entries(m)
                # a witness's candidates are among those of its node
                siblings = [r.entries(k) for k in r.children[up] if k != m]
                for e in _differences(own, siblings):
                    assert r.rank(v, own, e) == r.literal(v, own, e).size, (m, e)
                    kinds.add((e[0], e in own))
        assert kinds == {(lab, positive) for lab in (DOWN, STEP) for positive in (False, True)}

    @staticmethod
    def count_calls(monkeypatch) -> list[str]:
        calls = []
        for name in ("Eta", "Or", "Not"):
            def counted(*args, real=getattr(minimize, name), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(minimize, name, counted)
        return calls

    def test_a_warm_witness_builds_only_its_literal(self, monkeypatch):
        # once the node formulas are built, the first call on a sibling pair
        # builds exactly its literal's nodes, and a repeat, on any cells, none
        for document in (FIXTURES / "strip4.json").read_bytes(), maze_document(5):
            p = cell_poset(load_simplicial_model(document))
            r = minimize._refinement(p)
            r.build(len(r.parent) - 1)
            pairs = [(x, y) for a, b in same_valuation_pairs(p, 40) for x, y in ((a, b), (b, a))]
            asked = {None}
            calls = self.count_calls(monkeypatch)
            for a, b in pairs + pairs:
                calls.clear()
                witness = distinguishing_formula(p, a, b)
                siblings = sibling_pair(r, p.index_of(a), p.index_of(b))
                assert sorted(calls) == ([] if siblings in asked else literal_calls(witness)), (a, b)
                asked.add(siblings)
            monkeypatch.undo()
            assert len(asked) > 2

    def test_memoised_witnesses_are_those_of_a_fresh_record(self):
        # every same-valuation pair, asked twice of one record, against a
        # record that has answered nothing; the memo keeps one literal for
        # each ordered sibling pair asked
        models = [cell_poset(load_fixture(f"{stem}.json"))
                  for stem in ("segment3", "triangle_abc", "strip4")]
        models += [cell_poset(load_simplicial_model(maze_document(n))) for n in (3, 4)]
        models += [cell_poset(random_model(seed, 6, 3, 2)) for seed in range(20)]
        separated = 0
        for p in models:
            r = _Refinement(p)
            pairs = [(i, j) for i, j in permutations(range(len(p)), 2)
                     if p.valuations[i] == p.valuations[j]]
            first = [r.witness(i, j) for i, j in pairs]
            for (i, j), witness in zip(pairs, first):
                assert r.witness(i, j) is witness
                if r.partition.block[i] != r.partition.block[j]:
                    assert _Refinement(p).witness(i, j) is witness, (i, j)
                    separated += 1
            assert set(r._witnesses) == {sibling_pair(r, i, j) for i, j in pairs} - {None}
        assert separated > 500, separated

    def test_node_formulas_build_only_what_they_conjoin(self, monkeypatch):
        r = _Refinement(cell_poset(load_simplicial_model(maze_document(8))))
        pinned = max(r.children[0])  # valuation formulas call Not on atoms
        r.build(pinned)
        calls = self.count_calls(monkeypatch)
        r.build(len(r.parent) - 1)
        conjoined, kept, candidates = [], 0, 0
        for m in range(pinned + 1, len(r.parent)):
            up = r.parent[m]
            f = r._formulas[m][1]
            while f is not r._formulas[up][1]:  # each literal is a right operand
                conjoined += literal_calls(f.right)
                kept += 1
                f = f.left
            siblings = [r.entries(k) for k in r.children[up] if k != m]
            candidates += len(_differences(r.entries(m), siblings))
        assert sorted(calls) == sorted(conjoined)
        assert 0 < kept < candidates

    def test_differences_are_the_per_entry_reference(self):
        rng = random.Random(0)
        entries = [(lab, t, n) for lab in (DOWN, STEP) for t in range(3) for n in (0, 1)]

        def pick(own):
            return rng.choice([
                own, frozenset(), frozenset(entries),
                frozenset(e for e in entries if rng.random() < 0.5),
            ])

        for _ in range(1000):
            own = pick(frozenset())
            others = [pick(own) for _ in range(rng.randrange(5))]
            assert _differences(own, others) == frozenset(differences_by_entry(own, others))


class TestIdempotence:
    def test_classes_of_the_minimal_model_are_pairwise_distinguished(
        self, segment3, triangle, strip4
    ):
        # evaluating each separating formula on the quotient itself must
        # separate the corresponding nodes, i.e. the quotient admits no
        # further collapse
        for p in (segment3, triangle, strip4):
            mm = minimal_model(p)
            reps = {c: min(members_of(mm, c), key=p.index_of) for c in mm.kripke.elements}
            for c1, c2 in combinations(mm.kripke.elements, 2):
                f = distinguishing_formula(p, reps[c1], reps[c2])
                assert f is not None
                extension = sat(mm.kripke, f).members
                assert (c1 in extension) != (c2 in extension)


class TestGoldenDigests:
    @pytest.fixture(scope="class")
    def found(self):
        return golden.digests()

    def test_outputs_and_witnesses_match_the_recorded_digests(self, found):
        # the classes, minimal model and .aut bytes of minimize --emit-aut,
        # and the text of sampled witnesses, as tests/golden.py records them
        assert found == json.loads(golden.DIGESTS.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("tamper", ["none", "digest", "case"])
    def test_check_names_each_difference(self, found, tmp_path, monkeypatch, capsys, tamper):
        recorded = json.loads(golden.DIGESTS.read_text(encoding="utf-8"))
        expected = []
        if tamper == "digest":
            real = recorded["strip4"]["minmodel.json"]
            recorded["strip4"]["minmodel.json"] = "0" * 64
            expected = [f"strip4 minmodel.json: recorded {'0' * 64}, found {real}"]
        elif tamper == "case":
            kinds = recorded.pop("corridor 12")
            expected = [f"corridor 12 {kind}: recorded None, found {kinds[kind]}"
                        for kind in sorted(kinds)]
        tampered = tmp_path / "digests.json"
        tampered.write_text(json.dumps(recorded), encoding="utf-8")
        monkeypatch.setattr(golden, "DIGESTS", tampered)
        monkeypatch.setattr(golden, "digests", lambda: found)
        assert golden.main(["--check"]) == (1 if expected else 0)
        out = capsys.readouterr().out.splitlines()
        assert out == (expected or [f"all {len(recorded)} cases match digests.json"])

    def test_the_script_checks_without_pytest(self):
        src = str(Path(polymin.__file__).parent.parent)
        done = subprocess.run([sys.executable, golden.__file__, "--check"],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        recorded = json.loads(golden.DIGESTS.read_text(encoding="utf-8"))
        assert (done.returncode, done.stdout, done.stderr) == (
            0, f"all {len(recorded)} cases match golden_digests.json\n", "")
