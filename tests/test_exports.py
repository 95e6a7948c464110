"""Every exported name exists: a stale entry in an `__all__` list breaks
`import *` for every caller, and nothing else in the suite notices."""
import importlib

import pytest

MODULES = ("aircomplete", "aircomplete.mat_core", "aircomplete.data_lab",
           "aircomplete.dmf", "aircomplete.air_reg", "aircomplete.trainer",
           "aircomplete.baselines", "aircomplete.theory_lab",
           "aircomplete.cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(mod.__all__) <= set(namespace)
