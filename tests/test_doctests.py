import doctest
from importlib import import_module

import pytest

import twostack


@pytest.mark.parametrize("name", [f"twostack.{module}" for module in twostack._EXPORTS])
def test_module_doctests(name):
    result = doctest.testmod(import_module(name))
    assert result.attempted > 0
    assert result.failed == 0
