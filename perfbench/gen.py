"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its arguments: the same arguments give
the same bytes.  The polymin program only ever sees files written from these
strings.
"""

from __future__ import annotations

import json
import random

GRID_ATOMS = ("wall", "floor", "goal")
# A shared edge or vertex takes the strongest colour among its squares, so
# walls stay closed and goals are reachable only through their own cells.
_RANK = {"floor": 0, "goal": 1, "wall": 2}
ROOM = 3  # rooms are ROOM x ROOM squares, walled off by one-square lines
# Room interiors, as {(row, col): colour} over floor; every grid uses them
# in turn, so the seed only chooses which room gets which and its symmetry.
ROOM_TEMPLATES = (
    {(0, 0): "goal", (1, 1): "wall"},
    {(1, 1): "goal"},
    {(0, 0): "goal", (2, 2): "goal", (0, 2): "wall"},
    {(0, 1): "wall", (1, 1): "wall", (2, 0): "goal"},
)


def _symmetry(rng: random.Random, size: int):
    """A random one of the eight symmetries of a size-by-size square."""
    flip_i, flip_j, swap = (rng.random() < 0.5 for _ in range(3))

    def turn(a: int, b: int) -> tuple[int, int]:
        if swap:
            a, b = b, a
        return (size - 1 - a if flip_i else a), (size - 1 - b if flip_j else b)
    return turn


def grid_cells(n: int) -> int:
    """Cell count of the triangulated n-by-n grid: (n+1)^2 + n(3n+2) + 2n^2."""
    return (n + 1) ** 2 + n * (3 * n + 2) + 2 * n * n


def grid_document(n: int, seed, vary_rooms: bool = True) -> str:
    """A triangulated n-by-n maze with a seeded wall/floor/goal colouring.

    The squares form rooms of ROOM x ROOM squares separated by wall lines
    with a door in the middle of every wall segment.  Rooms take the
    ROOM_TEMPLATES in turn.  With ``vary_rooms`` the seed shuffles which
    room gets which template and turns each room; either way it turns or
    mirrors the whole maze.  Every unit square is split by its main diagonal
    into two triangles and the complex is closed under faces.  Cells are
    listed vertices first, then edges, then triangles, each row-major.  The
    document has no ``vertices`` key, so the loader derives the vertex list
    itself, as it does for files written by ``polymin gen-random``.
    """
    rng = random.Random(f"grid:{n}:{seed}:{vary_rooms}")
    period = ROOM + 1
    square = [["wall" if i % period == ROOM or j % period == ROOM else "floor"
               for j in range(n)] for i in range(n)]
    bands = [range(k, min(k + ROOM, n)) for k in range(0, n, period)]
    for k in range(ROOM, n - 1, period):
        for band in bands:
            square[k][band[len(band) // 2]] = "floor"
            square[band[len(band) // 2]][k] = "floor"
    rooms = [(bi, bj) for bi in bands for bj in bands]
    templates = [ROOM_TEMPLATES[k % len(ROOM_TEMPLATES)] for k in range(len(rooms))]
    if vary_rooms:
        rng.shuffle(templates)
    for (bi, bj), template in zip(rooms, templates):
        turn = _symmetry(rng, ROOM) if vary_rooms else (lambda a, b: (a, b))
        for (a, b), colour in template.items():
            a, b = turn(a, b)
            if a < len(bi) and b < len(bj):
                square[bi[a]][bj[b]] = colour
    turn = _symmetry(rng, n)
    square = [[square[a][b] for a, b in (turn(i, j) for j in range(n))] for i in range(n)]

    def v(i: int, j: int) -> str:
        return f"r{i}c{j}"

    def strongest(squares) -> str:
        return max((square[i][j] for i, j in squares if 0 <= i < n and 0 <= j < n),
                   key=_RANK.__getitem__)

    cells = []
    for i in range(n + 1):
        for j in range(n + 1):
            around = [(i - 1, j - 1), (i - 1, j), (i, j - 1), (i, j)]
            cells.append(([v(i, j)], strongest(around)))
    for i in range(n + 1):
        for j in range(n + 1):
            if j < n:  # horizontal edge, between the squares above and below
                cells.append(([v(i, j), v(i, j + 1)], strongest([(i - 1, j), (i, j)])))
            if i < n:  # vertical edge, between the squares left and right
                cells.append(([v(i, j), v(i + 1, j)], strongest([(i, j - 1), (i, j)])))
            if i < n and j < n:  # the diagonal belongs to its square only
                cells.append(([v(i, j), v(i + 1, j + 1)], square[i][j]))
    for i in range(n):
        for j in range(n):
            c = square[i][j]
            cells.append(([v(i, j), v(i, j + 1), v(i + 1, j + 1)], c))
            cells.append(([v(i, j), v(i + 1, j), v(i + 1, j + 1)], c))
    doc = {
        "atoms": list(GRID_ATOMS),
        "cells": [{"vertices": vs, "atoms": [c]} for vs, c in cells],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


# -- scripts -----------------------------------------------------------------

_GRID_BINDINGS = "".join(f'let {a} = ap("{a}")\n' for a in GRID_ATOMS)

# Save templates by kind; every grid-check script takes one of each kind.
GRID_TEMPLATES = {
    "eta": [
        "eta(floor | goal, goal)",
        "eta(!wall, goal)",
        "eta(floor, goal | wall)",
    ],
    "gamma": [
        "gamma(floor, goal)",
        "gamma(!wall, goal)",
        "gamma(floor | goal, wall)",
    ],
    "diamond": [
        "diamond(wall)",
        "diamond(goal) & !wall",
        "diamond(eta(floor | goal, goal))",
    ],
    "nested": [
        "eta(floor, eta(floor | goal, goal))",
        "eta(floor | goal, goal & !eta(goal, wall))",
        "eta(!wall, eta(floor, goal) | goal)",
    ],
}
ETA_PURE_KINDS = ("eta", "nested")


def grid_script(seed: int, n_saves: int, kinds=tuple(GRID_TEMPLATES)) -> str:
    """A script over the grid atoms with ``n_saves`` distinct saves.

    The first saves take one template of each kind in ``kinds``; the rest
    are drawn from the remaining templates of those kinds.
    """
    rng = random.Random(f"grid-script:{seed}:{n_saves}:{','.join(kinds)}")
    pool = {k: rng.sample(GRID_TEMPLATES[k], len(GRID_TEMPLATES[k])) for k in kinds}
    chosen = [pool[k].pop() for k in kinds]
    rest = [t for k in kinds for t in pool[k]]
    rng.shuffle(rest)
    chosen += rest[: n_saves - len(chosen)]
    if len(chosen) < n_saves:
        raise ValueError(f"only {len(chosen)} templates for {n_saves} saves")
    return _GRID_BINDINGS + "".join(f'save "s{i}" {f}\n' for i, f in enumerate(chosen))


def random_eta_formula(rng: random.Random, depth: int, atoms: list[str]) -> str:
    """Text of a random eta-pure formula over let-bound atom names.

    Same operator mix as ``polymin.logic.random_formula``; written out here
    so the workload does not depend on that test helper.
    """
    def leaf() -> str:
        return "true" if rng.random() < 0.08 else rng.choice(atoms)

    def build(d: int) -> str:
        if d <= 0:
            return leaf()
        roll = rng.random()
        if roll < 0.25:
            return leaf()
        if roll < 0.40:
            return f"!({build(d - 1)})"
        if roll < 0.60:
            return f"({build(d - 1)} & {build(d - 1)})"
        if roll < 0.75:
            return f"({build(d - 1)} | {build(d - 1)})"
        return f"eta({build(d - 1)}, {build(d - 1)})"

    return build(depth)


def random_scripts(seed: int, atoms: list[str]) -> tuple[str, str]:
    """An eta-pure script and a direct-route script that adds gamma and diamond.

    The direct script repeats the eta saves first, in the same order.
    """
    rng = random.Random(f"random-scripts:{seed}")
    bindings = "".join(f'let {a} = ap("{a}")\n' for a in atoms)
    eta = [random_eta_formula(rng, 3, atoms) for _ in range(3)]
    extra = [
        f"gamma({random_eta_formula(rng, 2, atoms)}, {random_eta_formula(rng, 2, atoms)})",
        f"diamond({random_eta_formula(rng, 2, atoms)})",
    ]
    eta_saves = "".join(f'save "e{i}" {f}\n' for i, f in enumerate(eta))
    extra_saves = "".join(f'save "x{i}" {f}\n' for i, f in enumerate(extra))
    return bindings + eta_saves, bindings + eta_saves + extra_saves


# -- random_model sweep --------------------------------------------------------

# Cell-count bins [low, high) of the random-minimize sweep, and the
# (max_dim, n_atoms) shapes taken in turn within each bin.
SWEEP_BINS = ((15, 30), (30, 50), (50, 80), (80, 120), (120, 161))
SWEEP_SHAPES = ((2, 2), (3, 3), (2, 4), (3, 2), (2, 3), (3, 4))
# random_model draws up to n_vertices faces, so cells grow about linearly
# with n_vertices; these vertices-per-cell factors centre each bin.
_VERTICES_PER_CELL = {2: 0.65, 3: 0.38}


def sweep(seed: int, per_bin: int, random_model) -> list[tuple[tuple[int, int, int, int], object]]:
    """``per_bin`` models per bin of :data:`SWEEP_BINS`, made by ``random_model``.

    Returns ``((model_seed, n_vertices, max_dim, n_atoms), model)`` pairs.
    Shapes follow :data:`SWEEP_SHAPES` in turn, so the size and shape mix is
    the same for every seed; the model seed is searched upwards from a
    seed-derived start until the model lands in its bin.
    """
    rng = random.Random(f"sweep:{seed}")
    out = []
    k = 0
    for lo, hi in SWEEP_BINS:
        for _ in range(per_bin):
            max_dim, n_atoms = SWEEP_SHAPES[k % len(SWEEP_SHAPES)]
            k += 1
            n_vertices = max(4, round((lo + hi) / 2 * _VERTICES_PER_CELL[max_dim]))
            model_seed = rng.randrange(1 << 30)
            while True:
                model = random_model(model_seed, n_vertices, max_dim, n_atoms)
                if lo <= len(model.cells) < hi:
                    break
                model_seed += 1
            out.append(((model_seed, n_vertices, max_dim, n_atoms), model))
    return out
