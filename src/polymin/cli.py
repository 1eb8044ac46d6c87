"""Command line front end.

Subcommands replicate the full pipeline: load a model, build its cell poset,
encode, minimise, check scripts (directly or on the minimal model with
answers mapped back), plus generators and Aldebaran export for interop.

Exit codes: 0 success, 1 self-check failure, 2 invalid input or a path
that cannot be read or written, 3 an unexpected internal error.

Every JSON file is ``json.dumps`` of its payload with an indent of 2, plus a
newline, byte for byte: ``minimize``'s from the record's tables, the others by
:mod:`polymin.jsontext`.  Every output is UTF-8, on standard output too.
:func:`main` may be called many times in one process: the parser is built
once, at import, and a call leaves nothing on it for the next.
"""

from __future__ import annotations

import argparse
import gc
import sys
import traceback
from contextlib import nullcontext
from dataclasses import replace
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from . import bisim, checker, minimize
from .errors import EncodingError, InputError
from .jsontext import json_text
from .logic import is_eta_pure, parse_script
from .simplicial import (
    PosetModel, cell_poset, load_simplicial_model, model_to_document, random_model,
)


class SelfCheckFailure(Exception):
    pass


def _load_poset(path: str) -> PosetModel:
    return cell_poset(load_simplicial_model(Path(path).read_bytes()))


def _minimize_texts(mm: minimize.MinimalModel) -> tuple[str, str]:
    """The classes file's text and the minimal-model file's, which continues
    it with the relation's ``[i, j]`` pairs: what ``json_text`` writes for
    their payloads, byte for byte, written from the record's tables."""
    members: list[list[str]] = [[] for _ in range(len(mm.partition))]
    for w, k in zip(mm.source.elements, mm.partition.block):
        members[k].append(w)
    item = ",\n        "
    atoms = {v: f"[\n        {item.join(map(_quote, sorted(v)))}\n      ]" if v else "[]"
             for v in set(mm.kripke.valuations)}
    classes = ",".join([
        f'\n    {{\n      "id": {i},\n      "name": {_quote(min(ws))},\n      "members": '
        f'[\n        {item.join(map(_quote, ws))}\n      ],\n      "atoms": {atoms[v]}\n    }}'
        for i, (ws, v) in enumerate(zip(members, mm.kripke.valuations))])
    relation = ",".join([f"\n    [\n      {i},\n      {j}\n    ]"
                         for i, targets in enumerate(mm.kripke.succ) for j in targets])
    text = '{\n  "classes": [' + classes + "\n  ]\n}\n"
    return text, text[:-3] + ',\n  "relation": [' + relation + "\n  ]\n}\n"


def _write(path: str | Path | None, text: str) -> None:
    """Write ``text`` as UTF-8 to a file or to standard output, whatever the
    latter's own encoding (a text-only stream, as ``io.StringIO``, takes the
    text), in slices of at most 64 KiB, so no encoded copy is ever made."""
    if path is None and not hasattr(sys.stdout, "buffer"):
        sys.stdout.write(text)
        return
    if path is None:
        sys.stdout.flush()  # what was printed before goes first
    with nullcontext(sys.stdout.buffer) if path is None else open(path, "wb") as f:
        for k in range(0, len(text), 1 << 14):  # up to 4 bytes a character
            f.write(text[k:k + (1 << 14)].encode())
        f.flush()


def _self_check_pipeline(
    poset: PosetModel, mm: minimize.MinimalModel, quotient: bisim.Moves | None
) -> None:
    """Assert that the minimal model's partition is the direct fixpoint and is
    certified as branching bisimilarity on the concrete encoding, whose
    projection on it is ``quotient`` (None if uncertified), and that this
    quotient is minimal and its ``d`` moves give the minimal relation."""
    if bisim.weak_pm_partition(poset) != mm.partition:
        raise SelfCheckFailure("equivalence routes disagree")
    if quotient is None:
        raise SelfCheckFailure("the classes are not a branching bisimulation")
    if not bisim.is_branching_minimal(quotient):
        raise SelfCheckFailure("two classes are branching bisimilar")
    if minimize.rmin_via_quotient_d(quotient) != mm.kripke.succ:
        raise SelfCheckFailure("quotient d-transitions disagree with the minimal relation")


def cmd_minimize(args) -> int:
    if args.trim_self_tau and not args.emit_aut:
        raise InputError("--trim-self-tau only applies with --emit-aut")
    poset = _load_poset(args.model)
    mm = minimize.minimal_model(poset)
    if args.self_check or args.emit_aut:
        # one pass over the poset tables serves the certificate and the export
        quotient = bisim.branching_quotient(poset, mm.partition.block)
    if args.self_check:
        _self_check_pipeline(poset, mm, quotient)
    classes, minmodel = _minimize_texts(mm)
    stem = Path(args.model).stem
    files = {f"{stem}.classes.json": classes, f"{stem}.minmodel.json": minmodel}
    if args.emit_aut:
        if quotient is None:  # only reached without --self-check
            raise AssertionError("the classes are not a branching bisimulation")
        if args.trim_self_tau:  # each class drops its members' tau self-loops
            quotient = tuple(ms - {(bisim.TAU, k)} for k, ms in enumerate(quotient))
        files[f"{stem}.concrete.aut"] = bisim.to_aut(bisim.encode_concrete(poset))
        files[f"{stem}.quotient.aut"] = bisim.to_aut(quotient)
    # every output is serialised, so an input that fails writes nothing
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        _write(outdir / name, text)
    return 0


def cmd_check(args) -> int:
    try:
        text = Path(args.script).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"script is not valid UTF-8: {exc}") from None
    script = parse_script(text)
    model_path = args.model or script.model_ref
    if model_path is None:
        raise InputError("no model given: pass --model or add a load line to the script")
    poset = _load_poset(model_path)

    if args.on_minimal:
        # the quotient preserves only the eta fragment; answering gamma or
        # diamond on it would be silently wrong
        for name, f in script.saves.items():
            if not is_eta_pure(f):
                raise InputError(
                    f"save {name!r} uses gamma or diamond, which the minimal "
                    "model does not preserve; check it without --on-minimal"
                )
    if args.self_check or not args.on_minimal:
        # the extensions go once their vectors are made, before the write
        direct = {
            name: sat_set.to_bools(poset) for name, sat_set
            in checker.check_script(poset, script, strict_atoms=args.strict_atoms).items()
        }
    if args.self_check or args.on_minimal:
        # transfer only holds for the eta fragment
        eta = replace(script, saves={n: f for n, f in script.saves.items() if is_eta_pure(f)})
        mm = minimize.minimal_model(poset)
        class_results = checker.check_script(mm.kripke, eta, strict_atoms=args.strict_atoms)
        minimal = {name: minimize.map_back(mm, sat_set) for name, sat_set in class_results.items()}
    if args.self_check:
        for name, answer in minimal.items():
            if answer != direct[name]:
                raise SelfCheckFailure(f"direct and minimal answers differ for {name!r}")

    results = minimal if args.on_minimal else direct
    _write(args.output, json_text({"model": str(model_path), "results": results}))
    return 0


def cmd_gen_random(args) -> int:
    model = random_model(args.seed, args.n_vertices, args.max_dim, args.n_atoms)
    _write(args.output, model_to_document(model))
    return 0


def cmd_export_aut(args) -> int:
    poset = _load_poset(args.model)
    _write(args.output, bisim.to_aut(bisim.encode_concrete(poset)))
    return 0


def cmd_poset(args) -> int:
    poset = _load_poset(args.model)
    payload = {
        "elements": [
            {"name": w, "atoms": sorted(v)} for w, v in zip(poset.elements, poset.valuations)
        ],
        "covers": [[a, b] for a, b in poset.covers],
    }
    _write(args.output, json_text(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polymin",
        description="Check reach formulas on cell-poset models and minimise them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("minimize", help="compute equivalence classes and the minimal model")
    p.add_argument("model", help="model file (JSON)")
    p.add_argument("-o", "--outdir", default=".", help="output directory")
    p.add_argument("--emit-aut", action="store_true", help="also write .aut files")
    p.add_argument("--trim-self-tau", action="store_true",
                   help="drop tau self-loops from the quotient .aut (needs --emit-aut)")
    p.add_argument("--self-check", action="store_true",
                   help="verify the pipeline invariants on this input first")
    p.set_defaults(handler=cmd_minimize)

    p = sub.add_parser("check", help="evaluate a script's save directives per cell")
    p.add_argument("script", help="script file")
    p.add_argument("--model", help="model file (defaults to the script's load line)")
    p.add_argument("-o", "--output", help="result file (default: stdout)")
    p.add_argument("--on-minimal", action="store_true",
                   help="check on the minimal model and map answers back")
    p.add_argument("--strict-atoms", action="store_true",
                   help="error on atoms the model does not declare")
    p.add_argument("--self-check", action="store_true",
                   help="verify that direct and minimal answers agree")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("gen-random", help="generate a random valid model file")
    p.add_argument("seed", type=int)
    p.add_argument("n_vertices", type=int)
    p.add_argument("max_dim", type=int)
    p.add_argument("n_atoms", type=int)
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.set_defaults(handler=cmd_gen_random)

    p = sub.add_parser("export-aut", help="export the concrete LTS encoding as .aut")
    p.add_argument("model", help="model file (JSON)")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.set_defaults(handler=cmd_export_aut)

    p = sub.add_parser("poset", help="dump the cell poset as JSON")
    p.add_argument("model", help="model file (JSON)")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.set_defaults(handler=cmd_poset)

    return parser


# Built once: parsing leaves nothing on the parser, so every call of ``main``
# in one process shares it.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    # The model tables, extensions and partitions form no reference cycles,
    # yet the cyclic collector would walk them again and again as they are
    # built; what a command leaves is freed by reference counting.  The
    # collector's state is restored on every exit.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SelfCheckFailure as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{Path(frame.filename).name}:{frame.lineno}"
        print(f"internal error: {exc!r} at {where}", file=sys.stderr)
        return 3
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
