"""Canonical decomposition of 132-avoiding patterns.

A 132-avoiding permutation t of length k lists its right-to-left maxima
m_0 > m_1 > ... > m_r (left to right, m_0 = k) and splits as

    t = (B_0, m_0, B_1, m_1, ..., B_r, m_r)

where each (possibly empty) block B_i lies strictly above m_{i+1} and all of
B_{i+1}.  Prefixes and suffixes of this decomposition, flattened to honest
permutations, drive the generating-function recurrences in the engine module.

Index conventions (i is the block index):
  prefix(t, -1) = ()                prefix(t, 0) = flatten(B_0)
  prefix(t, i)  = flatten(B_0, m_0, ..., B_i, m_i)       1 <= i <= r
  suffix(t, i)  = flatten(B_i, m_i, ..., B_r, m_r)       0 <= i <= r
  suffix(t, r+1) = ()

head(t, j) is the plain left-to-right cut at a maximum: head(t, 0) =
flatten(B_0) and head(t, j) = flatten(B_0, m_0, ..., B_{j-1}, m_{j-1}) for
1 <= j <= r+1 (so head(t, r+1) = t).  The heads are exactly the patterns that
can sit strictly above a lower suffix inside a 132-avoiding permutation, and
the engine's recurrences are phrased in terms of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexOutOfRange, Not132Avoiding, PreconditionViolated
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


@dataclass(frozen=True)
class CanonicalDecomposition:
    """Blocks and maxima of a 132-avoiding pattern."""

    pattern: Pattern
    maxima: tuple[tuple[int, int], ...]  # (position, value), left to right
    blocks: tuple[Pattern, ...]          # B_0 .. B_r as sub-words (unflattened)

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
    """
    if not p:
        raise PreconditionViolated("cannot decompose the empty permutation")
    if contains(p, PATTERN_132):
        raise Not132Avoiding(f"{p} contains 132")
    positions = rtl_maxima(p)
    maxima = tuple((i, p[i]) for i in positions)
    blocks = []
    prev = -1
    for i in positions:
        blocks.append(tuple(p[prev + 1:i]))
        prev = i
    return CanonicalDecomposition(p, maxima, tuple(blocks))


def head(src: Pattern | CanonicalDecomposition, j: int) -> Pattern:
    """The flattened cut just after the (j-1)-th maximum; head(t, 0) is the
    flattened first block alone.  Defined for 0 <= j <= r+1."""
    d = src if isinstance(src, CanonicalDecomposition) else decompose(src)
    if j == 0:
        return flatten(d.blocks[0])
    if not 1 <= j <= d.r + 1:
        raise IndexOutOfRange(f"head index {j} outside 0..{d.r + 1}")
    cut = d.maxima[j - 1][0] + 1
    return flatten(d.pattern[:cut])


def prefix(src: Pattern | CanonicalDecomposition, i: int) -> Pattern:
    """The i-th prefix: () at i=-1, the bare first block at i=0, then the
    flattened pattern through m_i.  Defined for -1 <= i <= r.

    >>> prefix((2, 3, 1), 0)
    (1,)
    >>> prefix((2, 3, 1), 1)
    (2, 3, 1)
    """
    d = src if isinstance(src, CanonicalDecomposition) else decompose(src)
    if i == -1:
        return ()
    if i == 0:
        return flatten(d.blocks[0])
    if not 1 <= i <= d.r:
        raise IndexOutOfRange(f"prefix index {i} outside -1..{d.r}")
    return head(d, i + 1)


def suffix(src: Pattern | CanonicalDecomposition, i: int) -> Pattern:
    """The i-th suffix: the flattened pattern from block B_i on; () at r+1.

    >>> suffix((4, 2, 1, 3), 1)
    (2, 1, 3)
    >>> suffix((2, 3, 1), 2)
    ()
    """
    d = src if isinstance(src, CanonicalDecomposition) else decompose(src)
    if i == d.r + 1:
        return ()
    if not 0 <= i <= d.r:
        raise IndexOutOfRange(f"suffix index {i} outside 0..{d.r + 1}")
    begin = d.maxima[i][0] - len(d.blocks[i])
    return flatten(d.pattern[begin:])
