"""Test-only model families, as model documents built from parameters or from
other models."""

import importlib.util
import json
import random
from itertools import combinations, permutations, product
from pathlib import Path

from polymin.simplicial import SimplicialModel


# the benchmark's input generators, read once from ``perfbench/gen.py``
_spec = importlib.util.spec_from_file_location(
    "perfbench_gen", Path(__file__).parents[1] / "perfbench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


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


def grid_document(k: int) -> str:
    """A plain triangulated k x k grid as a model document: every unit square
    is split by one diagonal, cells are listed vertices, then edges, then
    triangles, and the atoms ``wall``/``floor``/``goal`` follow column stripes."""
    def v(x, y):
        return f"v{x}_{y}"

    def atom(x):
        return "goal" if x == k else "wall" if x % 4 == 0 else "floor"

    points = [(x, y) for y in range(k + 1) for x in range(k + 1)]
    edges = [((x, y), (x + 1, y)) for x, y in points if x < k]
    edges += [((x, y), (x, y + 1)) for x, y in points if y < k]
    edges += [((x, y), (x + 1, y + 1)) for x, y in points if x < k and y < k]
    triangles = [((x, y), (x + 1, y), (x + 1, y + 1)) for x, y in points if x < k and y < k]
    triangles += [((x, y), (x, y + 1), (x + 1, y + 1)) for x, y in points if x < k and y < k]
    cells = [[(x, y)] for x, y in points] + [list(e) for e in edges] + [list(t) for t in triangles]
    return json.dumps({
        "atoms": ["wall", "floor", "goal"],
        "cells": [
            {"vertices": [v(*p) for p in c], "atoms": [atom(min(x for x, _ in c))]}
            for c in cells
        ],
    })


def maze_document(n: int) -> str:
    """The seeded maze on an n x n grid that the benchmark generates
    (:data:`gen`), as a model document."""
    return gen.grid_document(n, 1)


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


KUHN_COLOURS = ("floor", "wall", "goal")  # weakest first


def kuhn3d_document(n: int, seed: int) -> str:
    """An n x n x n cube grid as a model document: each unit cube is cut into
    6 tetrahedra around its main diagonal (Kuhn's triangulation), and the
    complex is closed under faces.

    Each vertex ``x<x>y<y>z<z>`` gets a seeded colour, ``floor``, ``wall``
    or ``goal``, and a cell takes its strongest vertex colour, goal over
    wall over floor.  Cells are listed by size, then by vertex tuple.
    """
    rng = random.Random(seed)
    points = list(product(range(n + 1), repeat=3))
    strength = {p: rng.choices(range(3), weights=(6, 3, 1))[0] for p in points}
    cells: set[tuple] = set()
    for corner in product(range(n), repeat=3):
        for axes in permutations(range(3)):
            # the path from this corner to the opposite one, one axis at a time
            tet = [corner]
            for axis in axes:
                step = list(tet[-1])
                step[axis] += 1
                tet.append(tuple(step))
            for k in range(1, 5):
                cells.update(combinations(tet, k))
    return json.dumps({
        "atoms": list(KUHN_COLOURS),
        "cells": [
            {
                "vertices": [f"x{x}y{y}z{z}" for x, y, z in c],
                "atoms": [KUHN_COLOURS[max(map(strength.__getitem__, c))]],
            }
            for c in sorted(cells, key=lambda c: (len(c), c))
        ],
    })
