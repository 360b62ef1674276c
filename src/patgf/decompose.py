"""Canonical decomposition of 132-avoiding patterns.

A 132-avoiding permutation t of length k lists its right-to-left maxima
m_0 > m_1 > ... > m_r (left to right, m_0 = k) and splits as

    t = (B_0, m_0, B_1, m_1, ..., B_r, m_r)

where each (possibly empty) block B_i lies strictly above m_{i+1} and all of
B_{i+1}.  `decompose` flattens the cuts of this decomposition to honest
permutations once and keeps them on the record; they drive the
generating-function recurrences in the engine module.

Index conventions (the only statement of them):
  heads[0]      = flatten(B_0)
  heads[j]      = flatten(B_0, m_0, ..., B_{j-1}, m_{j-1})   1 <= j <= r+1
  prefixes[0]   = heads[0]
  prefixes[a]   = heads[a+1]                                1 <= a <= r
  suffixes[i]   = flatten(B_i, m_i, ..., B_r, m_r)          0 <= i <= r
  suffixes[r+1] = ()

So heads[r+1] = suffixes[0] = t, and the prefixes are the heads without
heads[1], the cut just after m_0.  The heads are exactly the patterns that
can sit strictly above a lower suffix inside a 132-avoiding permutation.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import Not132Avoiding, PreconditionViolated
from .perms import PATTERN_132, Pattern, contains, flatten


def rtl_maxima(p: Pattern) -> tuple[int, ...]:
    """Positions (0-based, left to right) of the right-to-left maxima.

    >>> rtl_maxima((2, 3, 1))
    (1, 2)
    >>> rtl_maxima((3, 2, 1))
    (0, 1, 2)
    """
    positions: list[int] = []
    best = 0
    for i in range(len(p) - 1, -1, -1):
        if p[i] > best:
            positions.append(i)
            best = p[i]
    return tuple(reversed(positions))


class CanonicalDecomposition(NamedTuple):
    """Blocks and maxima of a 132-avoiding pattern, and its flattened cuts."""

    pattern: Pattern
    maxima: tuple[tuple[int, int], ...]  # (position, value), left to right
    blocks: tuple[Pattern, ...]          # B_0 .. B_r as sub-words (unflattened)
    heads: tuple[Pattern, ...]           # heads[0 .. r+1]
    prefixes: tuple[Pattern, ...]        # prefixes[0 .. r]
    suffixes: tuple[Pattern, ...]        # suffixes[0 .. r+1]

    @property
    def r(self) -> int:
        return len(self.maxima) - 1

    def reassemble(self) -> Pattern:
        out: list[int] = []
        for block, (_, value) in zip(self.blocks, self.maxima):
            out.extend(block)
            out.append(value)
        return tuple(out)


def decompose(p: Pattern) -> CanonicalDecomposition:
    """Canonical decomposition of a nonempty 132-avoiding permutation.

    >>> d = decompose((2, 3, 1))
    >>> d.blocks, [v for _, v in d.maxima]
    (((2,), ()), [3, 1])
    >>> d.heads, d.prefixes, d.suffixes
    (((1,), (1, 2), (2, 3, 1)), ((1,), (2, 3, 1)), ((2, 3, 1), (1,), ()))
    """
    if not p:
        raise PreconditionViolated("cannot decompose the empty permutation")
    if contains(p, PATTERN_132):
        raise Not132Avoiding(f"pattern {p} contains 132")
    positions = rtl_maxima(p)
    starts = (0,) + tuple(i + 1 for i in positions[:-1])  # where each block begins
    heads = (flatten(p[:positions[0]]),) + tuple(flatten(p[:i + 1]) for i in positions)
    return CanonicalDecomposition(
        pattern=p,
        maxima=tuple((i, p[i]) for i in positions),
        blocks=tuple(tuple(p[s:i]) for s, i in zip(starts, positions)),
        heads=heads,
        prefixes=heads[:1] + heads[2:],
        suffixes=tuple(flatten(p[s:]) for s in starts) + ((),),
    )
