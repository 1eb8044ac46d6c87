"""Test-only model families built from other models."""

import json
from itertools import combinations

from polymin.simplicial import SimplicialModel


def barycentric_subdivision(m: SimplicialModel) -> tuple[str, list[int]]:
    """The barycentric subdivision of ``m`` as a model document, with the
    carrier of each of its cells as a cell number of ``m``.

    Its vertices are the cells of ``m``, named by cell number because ``-``
    may not occur in a vertex name.  Its cells are the chains of ``m`` under
    inclusion, shortest first; each lies inside its top cell, its carrier,
    and takes that cell's valuation.
    """
    number = {cell: i for i, cell in enumerate(m.cells)}
    # every chain that ends in a cell, as cell numbers from the bottom up
    chains: dict[int, list[tuple[int, ...]]] = {}
    for cell in sorted(m.cells, key=len):
        top = number[cell]
        chains[top] = [(top,)] + [
            chain + (top,)
            for k in range(1, len(cell))
            for face in combinations(cell, k)
            for chain in chains[number[face]]
        ]
    listed = sorted((c for cs in chains.values() for c in cs), key=lambda c: (len(c), c))
    document = {
        "atoms": list(m.atoms),
        "cells": [
            {"vertices": [str(i) for i in c], "atoms": sorted(m.valuations[c[-1]])}
            for c in listed
        ],
    }
    return json.dumps(document), [c[-1] for c in listed]


def corridor_document(k: int) -> str:
    """A 1 x ``k`` triangulated strip as a model document, with 8k + 3 cells.

    A cell's column is the least x of its vertices ``x<x>y<y>``.  Columns
    alternate between the atoms ``a`` and ``b`` and the last one, x = k, is
    ``goal``.  Every column is its own class, and round-based refinement
    splits off one column per round, so it takes about k rounds.
    """
    def atom(x):
        return "goal" if x == k else "ab"[x % 2]

    points = [(x, y) for x in range(k + 1) for y in (0, 1)]
    cells = [[p] for p in points]
    cells += [[(x, y), (x + 1, y)] for x in range(k) for y in (0, 1)]
    cells += [[(x, 0), (x, 1)] for x in range(k + 1)]
    cells += [[(x, 0), (x + 1, 1)] for x in range(k)]
    cells += [[(x, 0), (x + 1, 0), (x + 1, 1)] for x in range(k)]
    cells += [[(x, 0), (x, 1), (x + 1, 1)] for x in range(k)]
    return json.dumps({
        "atoms": ["a", "b", "goal"],
        "cells": [
            {"vertices": [f"x{x}y{y}" for x, y in c], "atoms": [atom(min(x for x, _ in c))]}
            for c in cells
        ],
    })
