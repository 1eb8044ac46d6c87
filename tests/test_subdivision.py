"""Answers do not change under barycentric subdivision.

The map from polyhedral models to cell poset models preserves and reflects
the logic, so two triangulations of one polyhedral model answer alike at
every point.  Each cell of a subdivision lies inside one cell of the
original model, its carrier, and must answer like it; and the two minimal
models must have as many classes.  Unlike the route-agreement gates, this
compares two different posets, so a misreading of the semantics shared by
every route shows here.
"""

import pytest

from polymin import cell_poset, load_simplicial_model, minimal_model, random_model, sat
from polymin.logic import Diamond, Gamma

from families import barycentric_subdivision
from oracles import random_formula


@pytest.mark.parametrize("max_dim", [2, 3])
def test_subdivided_cells_answer_like_their_carriers(max_dim):
    checked = 0
    for seed in range(60):
        m = random_model(seed, 3 + seed % 4, max_dim, 1 + seed % 3)
        if len(m.cells) > 30:
            continue
        checked += 1
        document, carriers = barycentric_subdivision(m)
        k, sd = cell_poset(m), cell_poset(load_simplicial_model(document))
        eta = [random_formula(100 * seed + j, 3, list(m.atoms)) for j in range(6)]
        for f in eta + [Gamma(a, b) for a, b in zip(eta, eta[1:])] + list(map(Diamond, eta)):
            answers = sat(k, f).to_bools(k)
            assert sat(sd, f).to_bools(sd) == [answers[c] for c in carriers], (seed, f)
        assert len(minimal_model(sd).partition) == len(minimal_model(k).partition), seed
    assert checked >= 40
