import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import polymin
from polymin import (
    Partition, PosetModel, bisim, cell_poset, checker, load_simplicial_model, minimize,
)
from polymin.checker import SatSet
from polymin.cli import SelfCheckFailure, main
from polymin.errors import InputError
from polymin.simplicial import model_to_document, random_model

from families import corridor_document, kuhn3d_document, maze_document
from oracles import aut_moves, minimize_payloads, quotient_lts

FIXTURES = Path(__file__).parent / "fixtures"

AUT_FAMILIES = {
    "fixtures": lambda: [(FIXTURES / f"{stem}.json").read_text(encoding="utf-8")
                         for stem in ("segment3", "triangle_abc", "strip4")],
    "random": lambda: [model_to_document(random_model(seed, 7, 3, 2)) for seed in range(60)],
    "grids": lambda: [maze_document(n) for n in (3, 5, 8, 12, 22)],
    "corridor": lambda: [corridor_document(30)],
    "kuhn3d": lambda: [kuhn3d_document(3, 1)],
}


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

    def test_trim_self_tau_drops_exactly_the_tau_self_loops(self, outdir):
        model = str(FIXTURES / "strip4.json")
        plain, trimmed, exported = outdir / "plain", outdir / "trimmed", outdir / "strip4.aut"
        assert run("minimize", model, "-o", str(plain), "--emit-aut") == 0
        assert run("minimize", model, "-o", str(trimmed), "--emit-aut", "--trim-self-tau") == 0
        assert run("export-aut", model, "-o", str(exported)) == 0
        header, *lines = (plain / "strip4.quotient.aut").read_text().splitlines()
        counts = re.fullmatch(r"des \(0,(\d+),(\d+)\)", header)
        assert counts and int(counts[1]) == len(lines)
        kept = [line for line in lines if not re.fullmatch(r'\((\d+),"tau",\1\)', line)]
        assert len(kept) < len(lines)
        expected = [f"des (0,{len(kept)},{counts[2]})", *kept]
        assert (trimmed / "strip4.quotient.aut").read_text() == "\n".join(expected) + "\n"
        assert (trimmed / "strip4.concrete.aut").read_bytes() == exported.read_bytes()

    @pytest.mark.parametrize("family", AUT_FAMILIES)
    def test_quotient_aut_is_the_oracle_projection(self, outdir, family):
        # the certified quotient that is written, with and without each
        # class's tau self-loop, is the rule-for-rule projection
        model = outdir / "model.json"
        for document in AUT_FAMILIES[family]():
            model.write_text(document, encoding="utf-8")
            p = cell_poset(load_simplicial_model(document))
            lts, part = bisim.encode_concrete(p), minimize.minimal_model(p).partition
            projection = quotient_lts(lts, part)
            trimmed = tuple(ms - {(bisim.TAU, k)} for k, ms in enumerate(projection))
            for flags, expected in (([], projection), (["--trim-self-tau"], trimmed)):
                assert run("minimize", str(model), "-o", str(outdir), "--emit-aut", *flags) == 0
                written = (outdir / "model.quotient.aut").read_text(encoding="utf-8")
                assert written == bisim.to_aut(expected)

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
        model = cell_poset(load_simplicial_model((FIXTURES / "strip4.json").read_bytes()))
        vec = dict(zip(model.elements, payload["results"]["reach"]))
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

    @pytest.mark.parametrize("flags", [[], ["--on-minimal"], ["--self-check"]],
                             ids=["direct", "on-minimal", "self-check"])
    def test_shared_let_bindings_are_evaluated_once(self, outdir, flags):
        # Written out as a tree, a60 has 2**60 leaves; b60 is an equal chain
        # bound separately.  A child process bounds the run, so a checker
        # that walks the tree fails by timeout instead of hanging the suite.
        chain = [f"let {x}0 = ap(\"red\")\n" for x in "ab"]
        chain += [f"let {x}{i + 1} = {x}{i} & {x}{i}\n" for x in "ab" for i in range(60)]
        script = self.write_script(
            outdir, "".join(chain) + 'save "a" a60\nsave "ab" a60 & b60\nsave "red" ap("red")\n'
        )
        done = subprocess.run(
            [sys.executable, "-m", "polymin.cli", "check", script,
             "--model", str(FIXTURES / "segment3.json"), *flags],
            env={**os.environ, "PYTHONPATH": str(Path(polymin.__file__).parent.parent)},
            capture_output=True, text=True, timeout=20,
        )
        assert (done.returncode, done.stderr) == (0, "")
        results = json.loads(done.stdout)["results"]
        assert results["a"] == results["ab"] == results["red"] == [True, False, False, True, False]

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
    return Partition(elements, tuple(range(len(elements))))


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
        (bisim, "branching_quotient", lambda lts, part: None),
        (bisim, "is_branching_minimal", lambda quotient: False),
        (minimize, "rmin_via_quotient_d", lambda quotient: ()),
    ], ids=["direct-fixpoint", "stability", "minimality", "quotient-d"])
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
                    name: SatSet(model, frozenset(range(len(model))) - s.numbers, s.formula)
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

        names = (
            "weak_pm_partition", "encode_concrete", "branching_quotient",
            "is_branching_minimal", "minimal_model",
        )
        for module in (bisim, minimize):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))

        # one quotient pass serves the certificate and the export; the
        # concrete LTS, built only for --emit-aut, is that pass on the
        # discrete partition
        model = str(FIXTURES / "strip4.json")
        for extra, concrete in (([], 0), (["--emit-aut"], 1)):
            calls.clear()
            assert run("minimize", model, "-o", str(outdir), "--self-check", *extra) == 0
            assert calls == Counter(
                weak_pm_partition=1, encode_concrete=concrete, branching_quotient=1 + concrete,
                is_branching_minimal=1, minimal_model=1,
            )
        calls.clear()
        assert run("minimize", model, "-o", str(outdir), "--emit-aut") == 0
        assert calls == Counter(encode_concrete=1, branching_quotient=2, minimal_model=1)

        calls.clear()
        assert check_on_minimal_with_self_check(outdir) == 0
        assert calls == Counter(minimal_model=1)


def standard_text(path: Path) -> str:
    """What the standard encoder writes for the payload of the JSON file ``path``."""
    return json.dumps(json.loads(path.read_text(encoding="utf-8")), indent=2) + "\n"


ODD_NAMES_MODEL = {
    "atoms": ["na\u00efve", 'q"\\'],
    "cells": [
        {"vertices": ["\u00e9"], "atoms": ["na\u00efve"]},
        {"vertices": ["\u20ac"], "atoms": ['q"\\']},
        {"vertices": ["\u00e9", "\u20ac"], "atoms": ["na\u00efve"]},
    ],
}


# vertex and atom names that meet every escape of the JSON writers: non-ASCII
# text, '"', '\\', control characters and a lone surrogate, which the model
# file spells as the escape "\\ud800"
ESCAPES_DOCUMENT = json.dumps({
    "atoms": ["na\u00efve", 'q"\\', "\ud800", "\x00\t\x1f", "\U0001f600"],
    "cells": [
        {"vertices": ["\u00e9\n"], "atoms": ["na\u00efve", "\ud800"]},
        {"vertices": ['"\\'], "atoms": ['q"\\']},
        {"vertices": ["\ud800\x7f\u20ac"], "atoms": []},
        {"vertices": ["\u00e9\n", '"\\'], "atoms": ["na\u00efve", "\ud800"]},
        {"vertices": ['"\\', "\ud800\x7f\u20ac"], "atoms": ["\x00\t\x1f", "\U0001f600"]},
        {"vertices": ["\u00e9\n", "\ud800\x7f\u20ac"], "atoms": []},
    ],
})

MINIMIZE_DOCUMENTS = {
    **{stem: lambda stem=stem: (FIXTURES / f"{stem}.json").read_text(encoding="utf-8")
       for stem in ("segment3", "triangle_abc", "strip4")},
    "maze-8": lambda: maze_document(8),
    "corridor-12": lambda: corridor_document(12),
    "one-cell": lambda: json.dumps({"cells": [{"vertices": ["A"], "atoms": []}]}),
    "odd-names": lambda: json.dumps(ODD_NAMES_MODEL),
    "escapes": lambda: ESCAPES_DOCUMENT,
}


class TestResultWriter:
    """Every JSON file the commands write is byte for byte what the standard
    encoder writes for the same payload."""

    @staticmethod
    def expect_minimize_files(outdir, document):
        """``minimize`` writes, for ``document``, what the standard encoder
        writes for the oracle's payloads."""
        model = outdir / "model.json"
        model.write_text(document, encoding="utf-8")
        assert run("minimize", str(model), "-o", str(outdir / "out")) == 0
        mm = minimize.minimal_model(cell_poset(load_simplicial_model(document)))
        for suffix, payload in zip(("classes", "minmodel"), minimize_payloads(mm)):
            written = (outdir / "out" / f"model.{suffix}.json").read_bytes()
            assert written == (json.dumps(payload, indent=2) + "\n").encode("ascii")

    @pytest.mark.parametrize("name", MINIMIZE_DOCUMENTS)
    def test_minimize_files_match_the_standard_encoder(self, outdir, name):
        self.expect_minimize_files(outdir, MINIMIZE_DOCUMENTS[name]())

    def test_minimize_files_match_the_standard_encoder_on_random_models(self, outdir):
        # max_dim 2 and 3, 0 to 4 atoms: some classes have no atoms
        for seed in range(200):
            model = random_model(seed, 4 + seed % 4, 2 + seed % 2, seed % 5)
            self.expect_minimize_files(outdir, model_to_document(model))

    @pytest.mark.parametrize("script, cells, model_name", [
        ("", [("A", ["p"])], "model.json"),
        ('save "x" ap("p")\nsave "na\u00efve \\ \u20ac" !ap("p")\n', [("A", ["p"])], "model.json"),
        ('save "x" eta(ap("p"), ap("q"))\n',
         [("A", ["p"]), ("B", ["q"]), ("AB", ["p"])], 'd\u00efr "q" \\ \u20ac.json'),
    ], ids=["no-saves", "one-cell", "odd-model-path"])
    def test_matches_the_standard_encoder(self, outdir, script, cells, model_name):
        model = outdir / model_name
        model.write_text(json.dumps({"atoms": ["p", "q"], "cells": [
            {"vertices": list(v), "atoms": a} for v, a in cells]}))
        (outdir / "script.txt").write_text(script, encoding="utf-8")
        out = outdir / "results.json"
        assert run("check", str(outdir / "script.txt"), "--model", str(model), "-o", str(out)) == 0
        results = json.loads(out.read_text())["results"]
        assert len(results) == script.count("save")
        payload = {"model": str(model), "results": results}
        assert out.read_text(encoding="utf-8") == json.dumps(payload, indent=2) + "\n"

    def test_poset_file_matches_the_standard_encoder(self, outdir):
        model = outdir / "odd.json"
        model.write_text(json.dumps(ODD_NAMES_MODEL))
        out = outdir / "poset.json"
        assert run("poset", str(model), "-o", str(out)) == 0
        assert out.read_text(encoding="utf-8") == standard_text(out)

    def test_gen_random_file_matches_the_standard_encoder(self, outdir):
        out = outdir / "model.json"
        assert run("gen-random", "3", "6", "2", "3", "-o", str(out)) == 0
        assert out.read_text(encoding="utf-8") == standard_text(out)


class TestSharedParser:
    """Every call of ``main`` in one process parses with the parser built when
    ``polymin.cli`` is imported, and no call leaves anything on it."""

    def test_a_plain_check_after_on_minimal_takes_the_direct_route(self, outdir, monkeypatch):
        routes = []
        real = minimize.minimal_model

        def observed(poset):
            routes.append("minimal")
            return real(poset)

        monkeypatch.setattr(minimize, "minimal_model", observed)
        script = outdir / "script.txt"
        script.write_text('save "red" eta(ap("red"), ap("red"))\n')
        check = ["check", str(script), "--model", str(FIXTURES / "segment3.json"), "-o"]
        assert main([*check, str(outdir / "minimal.json"), "--on-minimal"]) == 0
        assert routes == ["minimal"]
        assert main([*check, str(outdir / "direct.json")]) == 0
        assert routes == ["minimal"]
        assert (outdir / "direct.json").read_bytes() == (outdir / "minimal.json").read_bytes()

    @pytest.mark.parametrize("rejected", [
        ["check"], ["minimize", "--no-such-flag", "m.json"], ["gen-random", "x", "1", "1", "1"], [],
    ], ids=["missing-argument", "unknown-flag", "bad-int", "no-command"])
    def test_a_rejected_argv_leaves_the_next_call_alone(self, outdir, capsys, rejected):
        with pytest.raises(SystemExit) as exc:
            main(rejected)
        assert exc.value.code == 2
        assert "usage: polymin" in capsys.readouterr().err
        assert run("minimize", str(FIXTURES / "strip4.json"), "-o", str(outdir)) == 0
        assert (outdir / "strip4.classes.json").exists()

    def test_a_fresh_interpreter_writes_the_same_bytes(self, tmp_path):
        model = str(FIXTURES / "strip4.json")
        done = subprocess.run(
            [sys.executable, "-m", "polymin.cli", "minimize", model, "-o", str(tmp_path / "sub")],
            env={**os.environ, "PYTHONPATH": str(Path(polymin.__file__).parent.parent)},
            capture_output=True, text=True, timeout=20,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert run("minimize", model, "-o", str(tmp_path / "main")) == 0
        for name in ("strip4.classes.json", "strip4.minmodel.json"):
            assert (tmp_path / "sub" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()


class TestInputErrors:
    """Bad input ends with exit code 2 and one ``error:`` line."""

    def expect_input_error(self, capsys, *argv, message=""):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err

    def expect_no_output(self, outdir):
        assert [path.name for path in outdir.rglob("*")] == ["model.json"]

    def write_model(self, outdir, atom):
        model = outdir / "model.json"
        cell = {"vertices": ["A"], "atoms": [atom]}
        model.write_text(json.dumps({"atoms": [atom], "cells": [cell]}))
        return str(model)

    def test_model_not_utf8(self, outdir, capsys):
        model = outdir / "model.json"
        model.write_bytes(b'{"atoms": ["\xff"], "cells": []}')
        script = outdir / "script.txt"
        script.write_text('save "x" true\n')
        message = "model document is not valid UTF-8"
        self.expect_input_error(capsys, "poset", str(model), message=message)
        self.expect_input_error(
            capsys, "check", str(script), "--model", str(model), message=message
        )

    def test_script_not_utf8(self, outdir, capsys):
        script = outdir / "script.txt"
        script.write_bytes(b'save "\xe9" true\n')
        self.expect_input_error(
            capsys, "check", str(script), "--model", str(FIXTURES / "segment3.json"),
            message="script is not valid UTF-8",
        )

    def test_nul_in_load_path(self, outdir, capsys):
        script = outdir / "script.txt"
        script.write_text('load model = "a\0b"\nsave "x" true\n')
        self.expect_input_error(capsys, "check", str(script), message="model path holds a NUL")

    @pytest.mark.parametrize("argv", [
        ("export-aut", "{model}"),
        ("minimize", "{model}", "-o", "{outdir}", "--self-check"),
        ("minimize", "{model}", "-o", "{outdir}", "--emit-aut"),
    ], ids=["export-aut", "minimize-self-check", "minimize-emit-aut"])
    def test_reserved_atom(self, outdir, capsys, argv):
        model = self.write_model(outdir, "tau")
        argv = [a.format(model=model, outdir=outdir) for a in argv]
        self.expect_input_error(capsys, *argv, message="atom names collide with reserved labels")
        self.expect_no_output(outdir)

    @pytest.mark.parametrize("atom", ['a"b', "\ud800"], ids=["quote", "lone-surrogate"])
    def test_atom_aut_cannot_spell(self, outdir, capsys, atom):
        model = self.write_model(outdir, atom)
        self.expect_input_error(capsys, "export-aut", model, "-o", str(outdir / "m.aut"))
        self.expect_no_output(outdir)

    @pytest.mark.parametrize("argv", [
        ("export-aut", "{model}", "-o", "{outdir}/m.aut"),
        ("minimize", "{model}", "-o", "{outdir}", "--emit-aut"),
    ], ids=["export-aut", "minimize-emit-aut"])
    @pytest.mark.parametrize("atom", ["a\nb", "a\rb"], ids=["lf", "cr"])
    def test_atom_with_line_break(self, outdir, capsys, argv, atom):
        # one transition must stay on one .aut line
        model = self.write_model(outdir, atom)
        argv = [a.format(model=model, outdir=outdir) for a in argv]
        self.expect_input_error(capsys, *argv, message="label ")
        self.expect_no_output(outdir)

    @pytest.mark.parametrize("argv", [
        ("poset", "{outdir}"),
        ("minimize", "{model}", "-o", "{outdir}/file.txt/out"),
        ("check", "{outdir}", "--model", "{model}"),
    ], ids=["poset-directory", "minimize-outdir-under-file", "check-script-directory"])
    def test_unreadable_path(self, outdir, capsys, argv):
        (outdir / "file.txt").write_text("")
        model = str(FIXTURES / "segment3.json")
        self.expect_input_error(capsys, *(a.format(model=model, outdir=outdir) for a in argv))

    def test_trim_self_tau_without_emit_aut(self, outdir, capsys, monkeypatch):
        def unread(document):
            raise AssertionError("the model is loaded")

        monkeypatch.setattr("polymin.cli.load_simplicial_model", unread)
        model = self.write_model(outdir, "p")
        self.expect_input_error(capsys, "minimize", model, "-o", str(outdir), "--trim-self-tau",
                                message="--trim-self-tau only applies with --emit-aut")
        self.expect_no_output(outdir)

    def test_bad_gen_random_arguments(self, capsys):
        self.expect_input_error(capsys, "gen-random", "1", "3", "-1", "2",
                                message="max_dim must be non-negative")
        self.expect_input_error(capsys, "gen-random", "1", "3", "1", "-1",
                                message="n_atoms must be non-negative")
        # faces of 40 vertices, or a billion vertex or atom names, are refused
        # before anything is built
        for argv, message in [
            (("1", "40", "39", "1"), "n_vertices 40 and max_dim 39 allow over 10**6 cells"),
            (("1", "1000000000", "0", "1"),
             "n_vertices 1000000000 and max_dim 0 allow over 10**6 cells"),
            (("1", "1", "0", "1000000000"),
             "n_atoms 1000000000 with n_vertices 1 and max_dim 0 allow over 10**7 atom draws"),
        ]:
            start = time.perf_counter()
            self.expect_input_error(capsys, "gen-random", *argv, message=message)
            assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("text, message", [
        ('save x true\n', "expected quoted save name (line 1, column 6)"),
        ('load path = "m.json"\n', "expected 'model' after 'load' (line 1, column 6)"),
        ('let save = true\n', "expected binding name (line 1, column 5)"),
        ('save "x" true\nfoo\n',
         "expected 'let', 'save' or end of script, found 'foo' (line 2, column 1)"),
    ], ids=["unquoted-save-name", "load-without-model", "let-keyword", "trailing-text"])
    def test_script_syntax_error(self, outdir, capsys, text, message):
        script = outdir / "script.txt"
        script.write_text(text)
        self.expect_input_error(
            capsys, "check", str(script), "--model", str(FIXTURES / "segment3.json"),
            message=message,
        )


class TestInternalError:
    def test_unexpected_exception_exits_3(self, outdir, capsys, monkeypatch):
        def broken(poset):
            raise RuntimeError("boom")

        monkeypatch.setattr(minimize, "minimal_model", broken)
        assert run("minimize", str(FIXTURES / "strip4.json"), "-o", str(outdir)) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: RuntimeError('boom') at test_cli.py:")
        assert err.count("\n") == 1

    def test_an_uncertified_quotient_exits_3(self, outdir, capsys, monkeypatch):
        # without --self-check, a partition the quotient pass rejects is a bug
        monkeypatch.setattr(bisim, "branching_quotient", lambda lts, part: None)
        argv = ("minimize", str(FIXTURES / "strip4.json"), "-o", str(outdir), "--emit-aut")
        assert run(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: AssertionError(") and err.count("\n") == 1
        assert list(outdir.iterdir()) == []

    def test_internal_value_error_exits_3(self, outdir, capsys, monkeypatch):
        def broken(poset):
            raise ValueError("not an input fault")

        monkeypatch.setattr(minimize, "minimal_model", broken)
        assert run("minimize", str(FIXTURES / "strip4.json"), "-o", str(outdir)) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: ValueError('not an input fault') at test_cli.py:")
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
        assert sum(lab == "tau" for ms in aut_moves(text) for lab, _ in ms) == 11

    def test_round_trip(self, outdir):
        out = outdir / "seg.aut"
        run("export-aut", str(FIXTURES / "segment3.json"), "-o", str(out))
        poset = cell_poset(load_simplicial_model((FIXTURES / "segment3.json").read_bytes()))
        assert aut_moves(out.read_text()) == list(map(set, bisim.encode_concrete(poset)))


class TestPoset:
    def test_dump(self, outdir):
        out = outdir / "poset.json"
        rc = run("poset", str(FIXTURES / "segment3.json"), "-o", str(out))
        assert rc == 0
        payload = json.loads(out.read_text())
        assert [e["name"] for e in payload["elements"]] == ["D", "E", "F", "D-E", "E-F"]
        assert ["D", "D-E"] in payload["covers"]


class TestStdout:
    @pytest.mark.parametrize("argv", [
        ("check", "{script}", "--model", "{model}"),
        ("poset", "{model}"),
        ("export-aut", "{model}"),
        ("gen-random", "7", "5", "2", "3"),
    ], ids=["check", "poset", "export-aut", "gen-random"])
    def test_prints_the_bytes_it_writes_to_a_file(self, outdir, capsysbinary, argv):
        script = outdir / "script.txt"
        script.write_text('save "reach" eta(ap("green") | ap("grey"), ap("green"))\n')
        argv = [arg.format(script=script, model=FIXTURES / "strip4.json") for arg in argv]
        out = outdir / "out"
        assert run(*argv, "-o", str(out)) == 0
        assert run(*argv) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    def test_prints_utf8_whatever_the_stream_encoding(self, outdir):
        # the .aut text spells a non-ASCII atom as it is, which an ASCII
        # standard output cannot encode; it gets the bytes -o writes
        model = outdir / "model.json"
        model.write_text(json.dumps({"cells": [
            {"vertices": ["A"], "atoms": ["na\u00efve", "\u20ac", "\U0001f600"]},
        ]}), encoding="utf-8")
        assert run("export-aut", str(model), "-o", str(outdir / "model.aut")) == 0
        done = subprocess.run(
            [sys.executable, "-m", "polymin.cli", "export-aut", str(model)],
            env={**os.environ, "PYTHONPATH": str(Path(polymin.__file__).parent.parent),
                 "PYTHONIOENCODING": "ascii"},
            capture_output=True, timeout=20,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == (outdir / "model.aut").read_bytes()
        assert "na\u00efve".encode() in done.stdout

    def test_a_text_only_stream_takes_the_text(self, outdir):
        out = outdir / "poset.json"
        assert run("poset", str(FIXTURES / "strip4.json"), "-o", str(out)) == 0
        with contextlib.redirect_stdout(io.StringIO()) as stream:
            assert run("poset", str(FIXTURES / "strip4.json")) == 0
        assert stream.getvalue() == out.read_text(encoding="utf-8")


class TestCollectorPause:
    """``main`` runs the command with the cyclic collector off, because
    polymin's own objects form no reference cycles for it to free."""

    @pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
    def collecting(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("raised, rc", [
        (None, 0),
        (SelfCheckFailure("faked"), 1),
        (InputError("faked"), 2),
        (RuntimeError("faked"), 3),
    ], ids=["exit-0", "exit-1", "exit-2", "exit-3"])
    def test_the_collector_state_is_restored(self, outdir, monkeypatch, collecting, raised, rc):
        seen = []
        real = minimize.minimal_model

        def observed(poset):
            seen.append(gc.isenabled())
            if raised is not None:
                raise raised
            return real(poset)

        monkeypatch.setattr(minimize, "minimal_model", observed)
        assert run("minimize", str(FIXTURES / "strip4.json"), "-o", str(outdir)) == rc
        assert seen == [False]
        assert gc.isenabled() == collecting

    @staticmethod
    def unreachable_objects(action) -> int:
        """How many objects only the cyclic collector could free after ``action``."""
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            action()
            gc.collect()
            return len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()

    @pytest.mark.parametrize("argv", [
        ["check", "{script}", "--model", "{model}", "-o", "{out}/results.json"],
        ["check", "{script}", "--model", "{model}", "-o", "{out}/results.json", "--on-minimal"],
        ["check", "{script}", "--model", "{model}", "-o", "{out}/results.json", "--self-check"],
        ["minimize", "{model}", "-o", "{out}", "--self-check", "--emit-aut"],
    ], ids=["check", "check-on-minimal", "check-self-check", "minimize-self-check-emit-aut"])
    def test_commands_make_no_reference_cycles(self, outdir, argv):
        script = outdir / "script.txt"
        script.write_text(
            'let g = ap("green")\n'
            'save "reach" eta(g | ap("grey"), g)\n'
            'save "twice" eta(g, eta(g | ap("grey"), g))\n'
        )
        fields = {"script": script, "model": FIXTURES / "strip4.json", "out": outdir}
        argv = [a.format(**fields) for a in argv]
        assert main(argv) == 0  # first imports and caches are not the command's
        assert self.unreachable_objects(lambda: main(argv)) == 0
