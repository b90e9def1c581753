"""The cheapest-cover table on tuple residuals, kept as the reference for
``continuation._min_cover``.

Independent of the library: it reads ground values and integer rows and
uses only ``fractions`` and ``math.lcm``.  For every residual
demand r reachable from a demand it stores the least
(value(e) + cost of clamp(r - e), index of e) over the ground points e that
touch a positive coordinate of r, filled in lexicographic order of the
residuals; the chain of stored indices from a demand is its cheapest cover
with the lexicographically least part sequence.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def cover_table(values, rows, demands):
    """Cheapest covers of integer demands by nonzero integer rows.

    Returns the cost of each demand, as a Fraction, and its chain of ground
    indices (one per part, nondecreasing), and the number of residual x
    touching-ground steps the reachability pass took.
    """
    den = lcm(1, *(Fraction(v).denominator for v in values))
    scaled = [int(Fraction(v) * den) for v in values]

    def moves(r):
        ks = [k for k, row in enumerate(rows) if any(x and c for x, c in zip(r, row))]
        return ks, [tuple(max(x - c, 0) for x, c in zip(r, rows[k])) for k in ks]

    reachable = set(map(tuple, demands))
    stack = list(reachable)
    steps = 0
    while stack:
        ks, lefts = moves(stack.pop())
        steps += len(ks)
        for left in lefts:
            if left not in reachable:
                reachable.add(left)
                stack.append(left)
    best = {}
    for r in sorted(reachable):
        if any(r):
            ks, lefts = moves(r)
            best[r] = min((scaled[k] + best[left][0], k) for k, left in zip(ks, lefts))
        else:
            best[r] = (0, -1)
    chains = []
    for d in map(tuple, demands):
        chain, r = [], d
        while any(r):
            k = best[r][1]
            chain.append(k)
            r = tuple(max(x - c, 0) for x, c in zip(r, rows[k]))
        chains.append(tuple(chain))
    return [Fraction(best[tuple(d)][0], den) for d in demands], chains, steps
