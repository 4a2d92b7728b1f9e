"""Constructive packing-vs-covering dichotomy over a tree-decomposition.

Given an exact oracle for connected target subgraphs, either collect ``ell``
pairwise disjoint targets, or return a hitting set of size at most
(ell-1) * (width+1) after which the oracle finds nothing.

The procedure walks the rooted decomposition once, in post-order, and
stops at each node whose subtree region still holds a target: it records
the target, adds the node's (surviving) bag to the hitting set and deletes
the whole subtree region.  Recorded targets live in regions deleted before
later stops, so they are pairwise disjoint.  The walk goes on after a stop
rather than starting over: a node passed earlier found nothing in a
superset of its region now, and the oracle is exact, so it would find
nothing again.  A region equal to the one just asked is passed too: a
target would have deleted it, so the answer was None.
"""

from dataclasses import dataclass

from .errors import InternalConsistencyError
from .decomposition import postorder, subtree_bag_unions
from .graph import components


@dataclass
class Target:
    support: tuple  # sorted host vertices
    payload: object = None


@dataclass
class Dichotomy:
    disjoint: list = None  # ell targets with pairwise disjoint supports
    hitting_set: tuple = None  # sorted vertices

    @property
    def is_disjoint_arm(self):
        return self.disjoint is not None


def _check_target(g, region, target):
    support = set(target.support)
    if not support:
        raise InternalConsistencyError("oracle returned an empty target")
    if not support <= region:
        raise InternalConsistencyError("oracle target leaves the queried region")
    next(components(g.adj, [min(support)], support))  # takes min(support)'s component out
    if support:
        raise InternalConsistencyError("oracle target support is not connected")


def disjoint_or_hitting(g, dec, oracle, ell):
    """Run the dichotomy; exactly one arm of the result is set.

    ``oracle(region)`` takes a frozenset of vertices and returns a Target
    inside that region or None, exhaustively.  The vertices in play are
    those of ``dec``'s bags, so ``dec`` may decompose an induced subgraph of
    ``g`` in ``g``'s own vertex ids.  A hitting set above (ell-1)(width+1)
    raises InternalConsistencyError.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    order = postorder(dec)
    deleted = set()
    hitting = []
    found = []
    asked = None
    for x, union in zip(order, subtree_bag_unions(dec, order)):
        region = frozenset(union - deleted)
        if not region or region == asked:
            continue
        asked = region
        target = oracle(region)
        if target is None:
            continue
        _check_target(g, region, target)
        found.append(target)
        if len(found) == ell:
            return Dichotomy(disjoint=found)
        hitting.extend(set(dec.bags[x]) - deleted)
        deleted |= region
    hitting_set = tuple(sorted(hitting))
    bound = (ell - 1) * (dec.width + 1)
    if len(hitting_set) > bound:
        raise InternalConsistencyError(
            f"hitting set of {len(hitting_set)} exceeds (ell-1)(w+1) = {bound}"
        )
    leftover = frozenset().union(*dec.bags) - set(hitting_set)
    if leftover and oracle(leftover) is not None:
        raise InternalConsistencyError("target survives outside the hitting set")
    return Dichotomy(hitting_set=hitting_set)
