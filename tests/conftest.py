from pathlib import Path

import pytest

from polymin import (
    cell_poset, encode_concrete, load_simplicial_model, random_model, rmin_via_quotient_d,
)
from polymin.minimize import class_id

from oracles import as_partition, branching_partition, quotient_lts

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name):
    return load_simplicial_model((FIXTURES / name).read_bytes())


@pytest.fixture(scope="session")
def segment3_model():
    return load_fixture("segment3.json")


@pytest.fixture(scope="session")
def segment3(segment3_model):
    return cell_poset(segment3_model)


@pytest.fixture(scope="session")
def triangle_model():
    return load_fixture("triangle_abc.json")


@pytest.fixture(scope="session")
def triangle(triangle_model):
    return cell_poset(triangle_model)


@pytest.fixture(scope="session")
def strip4_model():
    return load_fixture("strip4.json")


@pytest.fixture(scope="session")
def strip4(strip4_model):
    return cell_poset(strip4_model)


def random_posets(count, max_cells=12, seed_base=0, n_vertices=4, max_dim=2, n_atoms=2):
    """Deterministic stream of small random poset models.

    Oversized draws are skipped so every property run stays at desk scale.
    """
    produced = 0
    seed = seed_base
    while produced < count:
        model = random_model(seed, n_vertices, max_dim, n_atoms)
        seed += 1
        if len(model.cells) > max_cells:
            continue
        produced += 1
        yield seed - 1, cell_poset(model)


def concrete_d_relation(p):
    """The minimal relation rebuilt from the concrete route's quotient ``d``
    transitions, independently of :func:`polymin.minimal_model`."""
    lts = encode_concrete(p)
    succ = rmin_via_quotient_d(quotient_lts(lts, as_partition(p, branching_partition(lts))))
    return frozenset((class_id(a), class_id(b)) for a, bs in enumerate(succ) for b in bs)
