import importlib
from types import ModuleType

import pytest

import mckay

MODULES = ["mckay", "mckay.cache", "mckay.chartab", "mckay.cli",
           "mckay.cyclotomic", "mckay.groups", "mckay.highest_weight",
           "mckay.quiver", "mckay.roots", "mckay.strata"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_the_package_all_lists_every_public_import():
    public = {n for n, v in vars(mckay).items()
              if not n.startswith("_") and not isinstance(v, ModuleType)}
    assert public == set(mckay.__all__)
