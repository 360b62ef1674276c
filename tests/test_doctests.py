"""Run the usage examples embedded in module docstrings."""

import doctest
import importlib


def test_doctests():
    for name in ("patgf.perms", "patgf.ratfunc", "patgf.chebyshev", "patgf.decompose",
                 "patgf.engine"):
        module = importlib.import_module(name)
        result = doctest.testmod(module, verbose=False)
        assert result.failed == 0, name
        assert result.attempted > 0, name
