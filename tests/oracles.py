"""Test-only checks that are not part of the shipped package."""

from polymin.bisim import Partition, _matching_path
from polymin.simplicial import PosetModel


def is_weak_pm_bisimulation(p: PosetModel, part: Partition) -> bool:
    """Check the matching condition for every same-class pair of ``part``."""
    for block in part.classes:
        for w1 in block:
            if p.valuation_of(w1) != p.valuation_of(next(iter(block))):
                return False
            for w2 in block:
                for u1 in p.undirected_neighbours(w1):
                    allowed = block | part.class_members(part.class_of(u1))
                    for d1 in p.predecessors(u1):
                        if not _matching_path(
                            p, w2, allowed, set(part.class_members(part.class_of(d1)))
                        ):
                            return False
    return True
