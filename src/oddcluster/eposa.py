"""Constructive packing-vs-covering dichotomy over a tree-decomposition.

Given an exact oracle for connected target subgraphs, either collect ``ell``
pairwise disjoint targets, or return a hitting set of size at most
(ell-1) * (width+1) after which the oracle finds nothing.

The procedure walks the rooted decomposition in post-order and
repeatedly takes a deepest node whose subtree region still holds a target;
it records the target, adds the node's (surviving) bag to the hitting set
and deletes the whole subtree region.  Recorded targets live in regions
deleted before later iterations, so they are pairwise disjoint.
"""

from collections import deque
from dataclasses import dataclass

from .errors import InternalConsistencyError
from .decomposition import postorder, subtree_bag_unions


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
    start = min(support)
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in g.adj[v] & support:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    if seen != support:
        raise InternalConsistencyError("oracle target support is not connected")


def disjoint_or_hitting(g, dec, oracle, ell):
    """Run the dichotomy; exactly one arm of the result is set.

    ``oracle(region)`` takes a frozenset of vertices and returns a Target
    inside that region or None, exhaustively.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    post = postorder(dec)
    unions = subtree_bag_unions(dec)
    deleted = set()
    hitting = []
    found = []
    while True:
        hit = None
        for x in post:
            region = frozenset(unions[x] - deleted)
            if not region:
                continue
            target = oracle(region)
            if target is not None:
                _check_target(g, region, target)
                hit = (x, target)
                break
        if hit is None:
            hitting_set = tuple(sorted(hitting))
            leftover = frozenset(range(g.n)) - set(hitting_set)
            if leftover and oracle(leftover) is not None:
                raise InternalConsistencyError(
                    "target survives outside the hitting set"
                )
            return Dichotomy(hitting_set=hitting_set)
        x, target = hit
        found.append(target)
        if len(found) == ell:
            return Dichotomy(disjoint=found)
        hitting.extend(set(dec.bags[x]) - deleted)
        deleted |= unions[x]
