import json
from collections import Counter
from pathlib import Path

import pytest

from polymin import (
    Partition, PosetModel, bisim, checker, from_aut, load_simplicial_model, minimize,
)
from polymin.checker import SatSet
from polymin.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def outdir(tmp_path):
    return tmp_path


class TestMinimize:
    def test_segment3_two_classes(self, outdir):
        rc = run("minimize", str(FIXTURES / "segment3.json"), "-o", str(outdir))
        assert rc == 0
        classes = json.loads((outdir / "segment3.classes.json").read_text())["classes"]
        assert len(classes) == 2
        assert classes[0] == {"id": 0, "name": "D", "members": ["D", "D-E"], "atoms": ["red"]}
        minmodel = json.loads((outdir / "segment3.minmodel.json").read_text())
        assert sorted(map(tuple, minmodel["relation"])) == [(0, 0), (1, 0), (1, 1)]

    def test_strip4_four_classes(self, outdir):
        rc = run("minimize", str(FIXTURES / "strip4.json"), "-o", str(outdir), "--self-check")
        assert rc == 0
        classes = json.loads((outdir / "strip4.classes.json").read_text())["classes"]
        assert len(classes) == 4
        assert classes[0]["members"] == ["A"]
        assert classes[3]["members"] == ["C-D-E"]

    def test_malformed_input_exits_2(self, outdir, capsys):
        bad = outdir / "bad.json"
        bad.write_text("{ nope")
        rc = run("minimize", str(bad), "-o", str(outdir))
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, outdir):
        assert run("minimize", str(outdir / "absent.json"), "-o", str(outdir)) == 2

    def test_emit_aut(self, outdir):
        rc = run(
            "minimize", str(FIXTURES / "segment3.json"), "-o", str(outdir), "--emit-aut"
        )
        assert rc == 0
        concrete = (outdir / "segment3.concrete.aut").read_text()
        assert concrete.splitlines()[0] == "des (0,27,5)"
        assert (outdir / "segment3.quotient.aut").exists()

    def test_outputs_are_deterministic(self, outdir):
        a, b = outdir / "a", outdir / "b"
        for target in (a, b):
            assert run(
                "minimize", str(FIXTURES / "strip4.json"), "-o", str(target), "--emit-aut"
            ) == 0
        for name in (
            "strip4.classes.json", "strip4.minmodel.json",
            "strip4.concrete.aut", "strip4.quotient.aut",
        ):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestCheck:
    def write_script(self, outdir, text, name="script.txt"):
        path = outdir / name
        path.write_text(text)
        return str(path)

    def test_strip4_reach_vector(self, outdir):
        script = self.write_script(
            outdir, 'save "reach" eta(ap("green") | ap("grey"), ap("green"))\n'
        )
        out = outdir / "results.json"
        rc = run("check", script, "--model", str(FIXTURES / "strip4.json"), "-o", str(out))
        assert rc == 0
        payload = json.loads(out.read_text())
        model = load_simplicial_model((FIXTURES / "strip4.json").read_bytes())
        vec = dict(zip(model.cell_names(), payload["results"]["reach"]))
        assert vec["D"] is True
        assert vec["A"] is False

    def test_on_minimal_is_byte_identical(self, outdir):
        script = self.write_script(
            outdir,
            'let g = ap("green")\n'
            'save "reach" eta(g | ap("grey"), g)\n'
            'save "lone" !eta(ap("grey"), ap("red"))\n',
        )
        direct = outdir / "direct.json"
        minimal = outdir / "minimal.json"
        args = ("check", script, "--model", str(FIXTURES / "strip4.json"))
        assert run(*args, "-o", str(direct)) == 0
        assert run(*args, "-o", str(minimal), "--on-minimal") == 0
        assert direct.read_bytes() == minimal.read_bytes()

    def test_empty_script(self, outdir):
        script = self.write_script(outdir, "")
        out = outdir / "results.json"
        rc = run("check", script, "--model", str(FIXTURES / "segment3.json"), "-o", str(out))
        assert rc == 0
        assert json.loads(out.read_text())["results"] == {}

    def test_model_from_load_line(self, outdir):
        script = self.write_script(
            outdir, f'load model = "{FIXTURES / "segment3.json"}"\nsave "reds" ap("red")\n'
        )
        out = outdir / "results.json"
        assert run("check", script, "-o", str(out)) == 0
        assert json.loads(out.read_text())["results"]["reds"] == [
            True, False, False, True, False,
        ]

    def test_no_model_anywhere_exits_2(self, outdir):
        script = self.write_script(outdir, 'save "x" ap("red")\n')
        assert run("check", script) == 2

    def test_bad_script_exits_2(self, outdir):
        script = self.write_script(outdir, 'save "x" undefinedName\n')
        assert run("check", script, "--model", str(FIXTURES / "segment3.json")) == 2

    @pytest.mark.parametrize(
        "text",
        [
            'save "deep" ' + "!" * 3000 + 'ap("red")\n',
            'let a0 = ap("red")\n'
            + "".join(f"let a{i + 1} = !a{i}\n" for i in range(3000))
            + 'save "deep" a3000\n',
        ],
        ids=["negations", "let-chain"],
    )
    def test_deep_formula_exits_2(self, outdir, text, capsys):
        script = self.write_script(outdir, text)
        assert run("check", script, "--model", str(FIXTURES / "segment3.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: formula nested deeper than") and err.count("\n") == 1

    def test_self_check_passes(self, outdir):
        script = self.write_script(outdir, 'save "reach" eta(ap("red"), ap("blue"))\n')
        out = outdir / "results.json"
        rc = run(
            "check", script, "--model", str(FIXTURES / "segment3.json"),
            "-o", str(out), "--self-check",
        )
        assert rc == 0

    def test_on_minimal_refuses_gamma(self, outdir, capsys):
        # gamma answers are not preserved by the quotient, so the minimal
        # route must refuse instead of mis-answering
        script = self.write_script(outdir, 'save "prox" gamma(ap("red"), true)\n')
        out = outdir / "results.json"
        base = ("check", script, "--model", str(FIXTURES / "triangle_abc.json"))
        assert run(*base, "-o", str(out), "--on-minimal") == 2
        assert "gamma or diamond" in capsys.readouterr().err
        # the direct route still answers it, self-check skips the transfer
        assert run(*base, "-o", str(out), "--self-check") == 0
        payload = json.loads(out.read_text())
        assert sum(payload["results"]["prox"]) == 6  # everything but the interior


def discrete(elements):
    return Partition.from_blocks(elements, [[w] for w in elements])


def check_on_minimal_with_self_check(outdir):
    script = outdir / "script.txt"
    script.write_text('save "reach" eta(ap("green") | ap("grey"), ap("green"))\n')
    return run(
        "check", str(script), "--model", str(FIXTURES / "strip4.json"),
        "-o", str(outdir / "results.json"), "--on-minimal", "--self-check",
    )


class TestSelfCheckFailures:
    @pytest.mark.parametrize("module, name, fake", [
        (bisim, "weak_pm_partition", lambda p: discrete(p.elements)),
        (bisim, "branching_partition", lambda lts: discrete(lts.states)),
        (minimize, "rmin_via_quotient_d", lambda lts, part: frozenset()),
    ], ids=["direct-fixpoint", "concrete-branching", "quotient-d"])
    def test_minimize_reports_a_disagreeing_oracle(
        self, outdir, capsys, monkeypatch, module, name, fake
    ):
        monkeypatch.setattr(module, name, fake)
        rc = run("minimize", str(FIXTURES / "strip4.json"), "-o", str(outdir), "--self-check")
        assert rc == 1
        assert "self-check failed:" in capsys.readouterr().err

    def test_check_reports_a_failed_transfer(self, outdir, capsys, monkeypatch):
        real = checker.check_script

        def flipped(model, script, strict_atoms=False):
            got = real(model, script, strict_atoms)
            if isinstance(model, PosetModel):  # the direct route
                got = {
                    name: SatSet(frozenset(model.elements) - s.members, s.formula)
                    for name, s in got.items()
                }
            return got

        monkeypatch.setattr(checker, "check_script", flipped)
        assert check_on_minimal_with_self_check(outdir) == 1
        assert "self-check failed:" in capsys.readouterr().err

    def test_each_route_runs_once(self, outdir, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        names = ("weak_pm_partition", "encode_concrete", "branching_partition", "minimal_model")
        for module in (bisim, minimize):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))

        rc = run("minimize", str(FIXTURES / "strip4.json"), "-o", str(outdir), "--self-check")
        assert rc == 0
        assert calls == Counter(dict.fromkeys(names, 1))

        calls.clear()
        assert check_on_minimal_with_self_check(outdir) == 0
        assert calls == Counter(minimal_model=1)


class TestInternalError:
    def test_unexpected_exception_exits_3(self, outdir, capsys, monkeypatch):
        def broken(poset):
            raise RuntimeError("boom")

        monkeypatch.setattr(minimize, "minimal_model", broken)
        assert run("minimize", str(FIXTURES / "strip4.json"), "-o", str(outdir)) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: RuntimeError('boom') at test_cli.py:")
        assert err.count("\n") == 1


class TestPrintedAlikeValuations:
    """The atom sets {"a,b"} and {"a", "b"} are both written {a,b}, but
    they are different valuations and must stay in different classes."""

    def write_model(self, outdir):
        model = outdir / "collide.json"
        model.write_text(json.dumps({"atoms": ["a,b", "a", "b"], "cells": [
            {"vertices": ["X"], "atoms": ["a,b"]},
            {"vertices": ["Y"], "atoms": ["a", "b"]},
        ]}))
        return str(model)

    def test_minimize_keeps_two_classes(self, outdir):
        model = self.write_model(outdir)
        assert run("minimize", model, "-o", str(outdir), "--self-check") == 0
        classes = json.loads((outdir / "collide.classes.json").read_text())["classes"]
        assert [(c["members"], c["atoms"]) for c in classes] == [
            (["X"], ["a,b"]), (["Y"], ["a", "b"]),
        ]

    def test_check_on_minimal(self, outdir):
        model = self.write_model(outdir)
        script = outdir / "script.txt"
        script.write_text('save "x" eta(ap("a,b"), true)\nsave "y" ap("a") & ap("b")\n')
        out = outdir / "results.json"
        args = ("check", str(script), "--model", model, "-o", str(out))
        assert run(*args, "--on-minimal", "--self-check") == 0
        assert json.loads(out.read_text())["results"] == {"x": [True, False], "y": [False, True]}


class TestGenRandom:
    def test_deterministic_bytes(self, outdir):
        a, b = outdir / "a.json", outdir / "b.json"
        assert run("gen-random", "1", "4", "2", "2", "-o", str(a)) == 0
        assert run("gen-random", "1", "4", "2", "2", "-o", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_loads_and_builds(self, outdir):
        out = outdir / "model.json"
        assert run("gen-random", "1", "4", "2", "2", "-o", str(out)) == 0
        model = load_simplicial_model(out.read_bytes())
        assert len(model.cells) >= 1

    def test_zero_vertices_exits_2(self):
        assert run("gen-random", "1", "0", "2", "2") == 2


class TestExportAut:
    def test_segment3_header(self, outdir):
        out = outdir / "seg.aut"
        rc = run("export-aut", str(FIXTURES / "segment3.json"), "-o", str(out))
        assert rc == 0
        text = out.read_text()
        assert text.splitlines()[0] == "des (0,27,5)"
        assert from_aut(text).count_label("tau") == 11

    def test_round_trip(self, outdir):
        out = outdir / "seg.aut"
        run("export-aut", str(FIXTURES / "segment3.json"), "-o", str(out))
        text = out.read_text()
        from polymin.bisim import to_aut

        assert to_aut(from_aut(text)) == text


class TestPoset:
    def test_dump(self, outdir):
        out = outdir / "poset.json"
        rc = run("poset", str(FIXTURES / "segment3.json"), "-o", str(out))
        assert rc == 0
        payload = json.loads(out.read_text())
        assert [e["name"] for e in payload["elements"]] == ["D", "E", "F", "D-E", "E-F"]
        assert ["D", "D-E"] in payload["covers"]
