"""Every exported name exists: a stale entry in an `__all__` list breaks
`import *` for every caller, and nothing else in the suite notices. Every
imported name is used: a deletion that leaves its import behind is found
here, as the repository runs no linter."""
import ast
import importlib
import inspect
import types

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


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_read_or_exported(name):
    mod = importlib.import_module(name)
    tree = ast.parse(inspect.getsource(mod))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    stale = [n for n in imported_names(tree)
             if n not in read and n not in mod.__all__]
    assert not stale


# the names perfbench's tracer wraps; a rename would blank a per-layer
# metric without failing anything else
TRACED = ("dmf.forward", "dmf.factor_grads_from_full", "dmf.initialize",
          "air_reg.reg_value_and_grad", "air_reg.build_laplacian",
          "air_reg.grad_wrt_X", "trainer.train", "trainer.adam_step",
          "trainer.metrics", "trainer.Adam.step", "mat_core.svd",
          "mat_core.as_matrix", "data_lab.apply_mask", "data_lab.lift",
          "data_lab.read_mask_pgm", "data_lab.SamplingMask.n_observed",
          "cli.read_matrix_csv", "cli.write_matrix_csv", "cli._gradcheck",
          "baselines.tv_value_and_grad", "theory_lab.verify_theorem1",
          "theory_lab.verify_balance")


@pytest.mark.parametrize("path", TRACED)
def test_every_traced_name_resolves(path):
    mod, *attrs = path.split(".")
    obj = importlib.import_module(f"aircomplete.{mod}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert isinstance(obj, (types.FunctionType, property))
