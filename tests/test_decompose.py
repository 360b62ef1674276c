"""Canonical decomposition of 132-avoiding patterns."""

import itertools

import pytest

from patgf import (
    Not132Avoiding,
    PreconditionViolated,
    contains,
    decompose,
    flatten,
    rtl_maxima,
)
from patgf.perms import PATTERN_132 as P132


def avoiders(n):
    return [p for p in itertools.permutations(range(1, n + 1)) if not contains(p, P132)]


def test_rtl_maxima():
    assert rtl_maxima((2, 3, 1)) == (1, 2)
    assert rtl_maxima((1, 2, 3, 4)) == (3,)
    assert rtl_maxima((3, 2, 1)) == (0, 1, 2)
    assert rtl_maxima(()) == ()


def test_decompose_examples():
    d = decompose((2, 3, 1))
    assert d.blocks == ((2,), ())
    assert [v for _, v in d.maxima] == [3, 1]
    assert d.r == 1

    d = decompose((4, 2, 1, 3))
    assert d.blocks == ((), (2, 1))
    assert [v for _, v in d.maxima] == [4, 3]

    d = decompose((1, 2, 3, 4, 5))
    assert d.blocks == ((1, 2, 3, 4),)
    assert d.r == 0


def test_decompose_errors():
    with pytest.raises(Not132Avoiding):
        decompose(P132)
    with pytest.raises(Not132Avoiding):
        decompose((2, 4, 3, 1))
    with pytest.raises(PreconditionViolated):
        decompose(())


def test_reassembly_and_dominance():
    for n in range(1, 7):
        for p in avoiders(n):
            d = decompose(p)
            assert d.reassemble() == p
            # the first maximum is the largest value
            assert d.maxima[0][1] == n
            # blockwise dominance: block i sits above m_{i+1} and block i+1
            for i in range(d.r):
                floor = max((d.maxima[i + 1][1], *d.blocks[i + 1]))
                assert all(v > floor for v in d.blocks[i])


def test_prefix_examples():
    assert decompose((2, 3, 1)).prefixes == ((1,), (2, 3, 1))
    assert decompose((1, 2, 3, 4)).prefixes == ((1, 2, 3),)


def test_suffix_examples():
    assert decompose((2, 3, 1)).suffixes == ((2, 3, 1), (1,), ())
    assert decompose((4, 2, 1, 3)).suffixes == ((4, 2, 1, 3), (2, 1, 3), ())


def test_prefix_suffix_chains():
    for n in range(1, 7):
        for p in avoiders(n):
            d = decompose(p)
            assert (len(d.prefixes), len(d.suffixes)) == (d.r + 1, d.r + 2)
            # the top prefix is the whole pattern once a second maximum exists;
            # at r = 0 it is the bare block (the m_0-free convention)
            if d.r >= 1:
                assert d.prefixes[d.r] == p
            else:
                assert d.prefixes[0] == flatten(p[:-1])
            assert d.suffixes[0] == p
            assert d.suffixes[d.r + 1] == ()
            for i in range(1, d.r + 1):
                assert contains(d.prefixes[i], d.prefixes[i - 1])
            for i in range(0, d.r + 1):
                assert contains(d.suffixes[i], d.suffixes[i + 1])


def test_head_family():
    d = decompose((5, 3, 4, 6, 2, 1))
    assert d.blocks == ((5, 3, 4), (), ())
    assert d.heads == ((3, 1, 2), flatten((5, 3, 4, 6)), flatten((5, 3, 4, 6, 2)),
                       (5, 3, 4, 6, 2, 1))
    # the prefixes are the heads without the cut just after m_0
    assert d.prefixes == (d.heads[0], d.heads[2], d.heads[3])
    # heads form a containment chain
    for n in range(1, 7):
        for p in avoiders(n):
            dd = decompose(p)
            assert len(dd.heads) == dd.r + 2 and dd.heads[dd.r + 1] == p
            for j in range(dd.r + 1):
                assert contains(dd.heads[j + 1], dd.heads[j])


def test_prefixes_are_132_avoiding():
    for p in avoiders(6):
        d = decompose(p)
        for cut in d.heads + d.prefixes + d.suffixes:
            assert not contains(cut, P132)
