"""Command line front end.

Subcommands replicate the full pipeline: load a model, build its cell poset,
encode, minimise, check scripts (directly or on the minimal model with
answers mapped back), plus generators and Aldebaran export for interop.

Exit codes: 0 success, 1 self-check failure, 2 invalid input, 3 an
unexpected internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import replace
from pathlib import Path

from . import bisim, checker, minimize
from .errors import InputError
from .logic import is_eta_pure, parse_script
from .simplicial import (
    PosetModel, cell_poset, load_simplicial_model, model_to_document, random_model,
)


class SelfCheckFailure(Exception):
    pass


def _load_poset(path: str) -> PosetModel:
    return cell_poset(load_simplicial_model(Path(path).read_bytes()))


def _classes_payload(part: bisim.Partition, poset: PosetModel) -> list[dict]:
    return [
        {
            "id": i,
            "name": part.names[i],
            "members": poset.sorted_elements(part.classes[i]),
            "atoms": sorted(poset.valuation_of(part.names[i])),
        }
        for i in range(len(part))
    ]


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _self_check_pipeline(poset: PosetModel, mm: minimize.MinimalModel) -> None:
    """Assert that the oracle routes agree with the minimal model: the direct
    fixpoint and concrete branching bisimilarity give its partition, and the
    concrete quotient's ``d`` transitions give its relation."""
    lts = bisim.encode_concrete(poset)
    concrete = bisim.branching_partition(lts)
    if not (bisim.weak_pm_partition(poset) == concrete == mm.partition):
        raise SelfCheckFailure("equivalence routes disagree")
    if minimize.rmin_via_quotient_d(lts, concrete) != mm.kripke.relation_pairs():
        raise SelfCheckFailure("quotient d-transitions disagree with the minimal relation")


def cmd_minimize(args) -> int:
    poset = _load_poset(args.model)
    mm = minimize.minimal_model(poset)
    if args.self_check:
        _self_check_pipeline(poset, mm)
    classes = _classes_payload(mm.partition, poset)
    stem = Path(args.model).stem
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    (outdir / f"{stem}.classes.json").write_text(
        json.dumps({"classes": classes}, indent=2) + "\n", encoding="utf-8"
    )
    relation = [[i, j] for i, targets in enumerate(mm.kripke.succ) for j in targets]
    (outdir / f"{stem}.minmodel.json").write_text(
        json.dumps({"classes": classes, "relation": relation}, indent=2) + "\n",
        encoding="utf-8",
    )
    if args.emit_aut:
        lts = bisim.encode_concrete(poset)
        (outdir / f"{stem}.concrete.aut").write_text(bisim.to_aut(lts), encoding="utf-8")
        quotient = bisim.quotient_lts(
            lts, mm.partition, drop_tau_self_loops=args.trim_self_tau
        )
        (outdir / f"{stem}.quotient.aut").write_text(bisim.to_aut(quotient), encoding="utf-8")
    return 0


def cmd_check(args) -> int:
    script = parse_script(Path(args.script).read_text(encoding="utf-8"))
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
        sat_sets = checker.check_script(poset, script, strict_atoms=args.strict_atoms)
        direct = {name: sat_set.to_bools(poset) for name, sat_set in sat_sets.items()}
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
    payload = {"model": str(model_path), "results": results}
    _write(args.output, json.dumps(payload, indent=2) + "\n")
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
            {"name": w, "atoms": sorted(poset.valuation_of(w))} for w in poset.elements
        ],
        "covers": [[a, b] for a, b in poset.covers],
    }
    _write(args.output, json.dumps(payload, indent=2) + "\n")
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
                   help="drop tau self-loops from the quotient .aut")
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (InputError, FileNotFoundError, ValueError) as exc:
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


if __name__ == "__main__":
    sys.exit(main())
