"""Byte-identity guard for minimisation and checking: SHA-256 digests of the
files ``minimize --emit-aut`` and ``check`` write and of sampled
distinguishing formulas.

Each case is a model document.  Its digests are those of the classes file,
the minimal model file, the concrete ``.aut`` and the quotient ``.aut``, of
the ``format_formula`` text of the witnesses of evenly spread same-valuation
pairs, in both orders, of every split-tree node's exact formula, written
one line per distinct formula node, and of the result files of ``check`` on
a script built from the case's atoms (:func:`check_script_text`), run
directly and, on its eta saves, with ``--on-minimal``, and of what
``poset`` prints, with its exit code.
``tests/golden_digests.json`` holds the recorded digests, which a tier-1
test compares against.  Compare them without pytest, or rewrite the file,
with::

    PYTHONPATH=src python tests/golden.py --check
    PYTHONPATH=src python tests/golden.py --record

``--check`` prints one line per case and output whose digest differs and
exits 1 if there is one, else 0.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from itertools import combinations
from pathlib import Path

from polymin import cell_poset, distinguishing_formula, format_formula, load_simplicial_model
from polymin import cli, minimal_model, minimize, random_model
from polymin.logic import Atom, is_eta_pure, parse_formula, postorder
from polymin.simplicial import model_to_document

from families import corridor_document, kuhn3d_document, maze_document

HERE = Path(__file__).parent
DIGESTS = HERE / "golden_digests.json"
OUTPUTS = ("classes.json", "minmodel.json", "concrete.aut", "quotient.aut")
PAIRS = 40  # same-valuation pairs in different classes sampled per model


def cases() -> dict[str, str]:
    """Every case's model document, by case name."""
    docs = {stem: (HERE / "fixtures" / f"{stem}.json").read_text(encoding="utf-8")
            for stem in ("segment3", "triangle_abc", "strip4")}
    docs.update({f"random {s}": model_to_document(random_model(s, 6, 3, 2)) for s in range(30)})
    docs.update({f"grid {n}": maze_document(n) for n in (3, 4)})
    docs["corridor 12"] = corridor_document(12)
    docs["kuhn3d 3"] = kuhn3d_document(3, 1)
    return docs


# save name: formula over the let-bound atoms a, b and c; the saves without
# gamma or diamond are the eta saves, which ``check --on-minimal`` also runs
CHECK_SAVES = {
    "eta": "eta(a | b, b)",
    "nested": "eta(a, eta(a | b, b) | c)",
    "not": "!eta(b, a)",
    "and": "a & eta(true, !b)",
    "or": "c | eta(!c, a & b)",
    "gamma": "gamma(a | b, b)",
    "gamma-alone": "gamma(!b, a)",
    "diamond": "diamond(a) & !eta(b, c)",
}


def check_script_text(atoms: tuple[str, ...], eta_only: bool = False) -> str:
    """The check script of a case declaring ``atoms``: ``a``, ``b`` and ``c``
    bind its first three atoms, taken cyclically; with ``eta_only`` it saves
    only the eta saves of :data:`CHECK_SAVES`."""
    lets = "".join(f'let {x} = ap("{atoms[k % len(atoms)]}")\n' for k, x in enumerate("abc"))
    return lets + "".join(f'save "{name}" {f}\n' for name, f in CHECK_SAVES.items()
                          if not eta_only or is_eta_pure(parse_formula(f)))


def check_texts(model: Path, atoms: tuple[str, ...]) -> dict[str, bytes]:
    """The bytes ``check`` writes for the case's script, directly and, on its
    eta saves, with ``--on-minimal``, with the model's path spelled
    ``model.json``."""
    texts = {}
    script, output = model.with_name("script.txt"), model.with_name("results.json")
    for flags in ([], ["--on-minimal"]):
        kind = " ".join(["check", *flags])
        script.write_text(check_script_text(atoms, eta_only=bool(flags)), encoding="utf-8")
        argv = ["check", str(script), "--model", str(model), "-o", str(output), *flags]
        if cli.main(argv) != 0:
            raise AssertionError(f"{kind} failed on {model}")
        path = json.dumps(str(model)).encode()
        texts[kind] = output.read_bytes().replace(path, b'"model.json"', 1)
    return texts


def poset_stdout(model: Path) -> tuple[int, bytes]:
    """``poset``'s exit code and the bytes it prints for the model."""
    with io.TextIOWrapper(io.BytesIO(), encoding="utf-8") as stdout, redirect_stdout(stdout):
        code = cli.main(["poset", str(model)])
        stdout.flush()
        return code, stdout.buffer.getvalue()


def witness_text(document: str) -> str:
    """The witnesses of sampled same-valuation pairs on a fresh model, one
    line a pair: the two cells and the formula's text, or None.  About
    ``PAIRS`` pairs lie in different classes and a quarter as many in one."""
    block = minimal_model(cell_poset(load_simplicial_model(document))).partition.block
    p = cell_poset(load_simplicial_model(document))
    apart: list[tuple[int, int]] = []
    together: list[tuple[int, int]] = []
    for i, j in combinations(range(len(p)), 2):
        if p.valuations[i] == p.valuations[j]:
            (apart if block[i] != block[j] else together).append((i, j))
    sample = apart[:: max(1, len(apart) // PAIRS)] + together[:: max(1, 4 * len(together) // PAIRS)]
    lines = []
    for i, j in sample:
        for x, y in ((i, j), (j, i)):
            a, b = p.elements[x], p.elements[y]
            f = distinguishing_formula(p, a, b)
            lines.append(f"{a} {b} {f and format_formula(f)}\n")
    return "".join(lines)


def node_formula_text(document: str) -> str:
    """Every split-tree node's exact formula on a fresh model: each distinct
    formula node once, from :func:`postorder`, as its number, type and
    operands' numbers (an atom's name), then the tree node's formula's
    number.  A corridor node's text as a tree is far too large to write."""
    record = minimize._refinement(cell_poset(load_simplicial_model(document)))
    record.build(len(record.parent) - 1)
    number: dict = {}
    lines = []
    for m in range(len(record.parent)):
        f = record._formulas[m][1]
        for g in postorder(f, number):
            number[g] = len(number)
            args = [repr(g.name)] if isinstance(g, Atom) else [str(number[h]) for h in g.operands]
            lines.append(" ".join([str(number[g]), type(g).__name__, *args]) + "\n")
        lines.append(f"node {m} {number[f]}\n")
    return "".join(lines)


def digests() -> dict[str, dict[str, str]]:
    """Every case's digests, by case name and output."""
    out: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, document in cases().items():
            model = Path(tmp) / "model.json"
            model.write_text(document, encoding="utf-8")
            outdir = Path(tmp) / "out"
            if cli.main(["minimize", str(model), "-o", str(outdir), "--emit-aut"]) != 0:
                raise AssertionError(f"minimize failed on {name}")
            out[name] = {
                kind: hashlib.sha256((outdir / f"model.{kind}").read_bytes()).hexdigest()
                for kind in OUTPUTS
            }
            text = witness_text(document).encode("utf-8")
            out[name]["witnesses"] = hashlib.sha256(text).hexdigest()
            text = node_formula_text(document).encode("utf-8")
            out[name]["node formulas"] = hashlib.sha256(text).hexdigest()
            atoms = load_simplicial_model(document).atoms
            for kind, text in check_texts(model, atoms).items():
                out[name][kind] = hashlib.sha256(text).hexdigest()
            code, text = poset_stdout(model)
            out[name]["poset"] = hashlib.sha256(text).hexdigest()
            out[name]["poset exit"] = str(code)
    return out


def differences(recorded: dict[str, dict[str, str]], found: dict[str, dict[str, str]]) -> list[str]:
    """One line per case and output whose digest differs between the record
    and ``found``, or that only one of them has."""
    lines = []
    for name in sorted(recorded.keys() | found.keys()):
        old, new = recorded.get(name, {}), found.get(name, {})
        for kind in sorted(old.keys() | new.keys()):
            if old.get(kind) != new.get(kind):
                lines.append(f"{name} {kind}: recorded {old.get(kind)}, found {new.get(kind)}")
    return lines


def main(argv: list[str]) -> int:
    if argv == ["--record"]:
        DIGESTS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    if argv != ["--check"]:
        print("usage: python tests/golden.py --check | --record", file=sys.stderr)
        return 2
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    lines = differences(recorded, digests())
    for line in lines:
        print(line)
    if not lines:
        print(f"all {len(recorded)} cases match {DIGESTS.name}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
