import sys

import pytest

import twostack.cli
import twostack.counting
import twostack.permutations
import twostack.trees
import twostack.verify

# the modules these tests imported; a test elsewhere in the same run may drop
# twostack from sys.modules and import it anew, which would leave these tests
# patching and reading one copy of the package while the CLI runs another
_IMPORTED = {name: module for name, module in sys.modules.items() if name.split(".")[0] == "twostack"}


@pytest.fixture(autouse=True)
def _imported_package(monkeypatch):
    for name, module in _IMPORTED.items():
        monkeypatch.setitem(sys.modules, name, module)
