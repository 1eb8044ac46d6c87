"""Model documents and scripts fuzzed through the command line.

Every run must end with exit 0 and nothing on stderr, or with exit 2 and one
``error:`` line: never a traceback, an internal error or a self-check
failure.  Names are drawn from an alphabet of the characters that canonical
cell names, printed atom sets and script strings treat specially.
"""

import contextlib
import io
import json
import re
import tempfile
from itertools import combinations
from pathlib import Path

from hypothesis import given, settings, strategies as st

from polymin.cli import main

NAMES = st.text('ab,{}-" ', min_size=1, max_size=3)


def _extend(f):
    pairs = st.tuples(f, f)
    return st.one_of(
        f.map("!{}".format),
        pairs.map("({0[0]} & {0[1]})".format),
        pairs.map("({0[0]} | {0[1]})".format),
        pairs.map("eta({0[0]}, {0[1]})".format),
        pairs.map("gamma({0[0]}, {0[1]})".format),
        f.map("diamond({})".format),
    )


# Formula text whose atoms are placeholders @0..@3 for the model's atoms.
FORMULAS = st.recursive(st.sampled_from(["true", "@0", "@1", "@2", "@3"]), _extend, max_leaves=6)
INDEX = st.integers(0, 3)


@st.composite
def cases(draw):
    """A model document closed under faces and a script over its atoms.

    A cell holds all drawn atom names, the same names joined with ``,`` into
    one declared name (which prints like the whole set), no atom, or the
    first name.  A vertex name with ``-`` or an atom name with ``"`` makes
    the document, or the script, invalid input."""
    names = draw(st.lists(NAMES, min_size=2, max_size=3, unique=True))
    vertices = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    tops = draw(st.lists(st.lists(INDEX, min_size=1, max_size=3), min_size=2, max_size=3))
    faces = sorted(
        {face for top in tops
         for face_size in range(1, len(top) + 1)
         for face in combinations(sorted({vertices[i % len(vertices)] for i in top}), face_size)},
        key=lambda face: (len(face), face),
    )
    held = [names, [",".join(sorted(names))], [], names[:1]]
    cells = [{"vertices": list(face), "atoms": held[draw(INDEX)]} for face in faces]
    atoms = names + held[1]
    saves = draw(st.lists(FORMULAS, min_size=1, max_size=3))
    script = "".join(
        f'save "s{i}" ' + re.sub(r"@(\d)", lambda m: f'ap("{atoms[int(m[1]) % len(atoms)]}")', f)
        + "\n"
        for i, f in enumerate(saves)
    )
    return json.dumps({"atoms": atoms, "cells": cells}), script, draw(st.booleans())


def run(*argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue()


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(cases())
def test_cli_ends_in_a_result_or_one_input_error(case):
    doc, script, strict = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "model.json").write_text(doc)
        (tmp / "script.txt").write_text(script)
        check = ("check", tmp / "script.txt", "--model", tmp / "model.json",
                 "-o", tmp / "results.json", "--self-check")
        runs = [
            run("minimize", tmp / "model.json", "-o", tmp, "--self-check"),
            run(*check, *(["--strict-atoms"] if strict else [])),
            run(*check, "--on-minimal"),
        ]
    for rc, err in runs:
        assert rc in (0, 2), err
        if rc == 0:
            assert err == ""
        else:
            assert err.startswith("error:") and err.count("\n") == 1, err
        assert "Traceback" not in err
