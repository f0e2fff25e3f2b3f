"""Every doctest in the ribbonhom package passes."""

import doctest
import importlib
import pkgutil

import pytest

import ribbonhom

MODULES = sorted(m.name for m in pkgutil.iter_modules(ribbonhom.__path__,
                                                      "ribbonhom."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} doctest(s) failed in {name}"
