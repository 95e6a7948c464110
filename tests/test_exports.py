"""Every exported name exists: a stale entry in an `__all__` list breaks
`import *` for every caller, and nothing else in the suite notices. Every
imported name is used: a deletion that leaves its import behind is found
here, as the repository runs no linter. No module reads an environment
variable but the BLAS thread count, so no run setting hides outside the
config table."""
import ast
import importlib
import inspect
import pathlib
import types

import pytest

import aircomplete

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


def environment_reads(tree):
    """The key of every read of os.environ or os.getenv in tree, or None
    where the key is not a string literal or the mapping is used whole."""
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        name = getattr(node, "attr", getattr(node, "id", None))
        if name not in ("environ", "getenv"):
            continue
        up, key = parent[node], None
        if isinstance(up, ast.Call) and up.func is node:  # getenv(key)
            key = [*up.args, None][0]
        elif isinstance(up, ast.Subscript) and up.value is node:
            key = up.slice
        elif isinstance(up, ast.Attribute) and isinstance(parent[up], ast.Call):
            key = [*parent[up].args, None][0]  # environ.get(key)
        elif isinstance(up, ast.Compare) and node in up.comparators:
            key = up.left  # key in environ
        literal = isinstance(key, ast.Constant) and isinstance(key.value, str)
        yield key.value if literal else None


@pytest.mark.parametrize("path", sorted(
    pathlib.Path(aircomplete.__file__).parent.glob("*.py")),
    ids=lambda path: path.name)
def test_only_the_blas_thread_count_is_read_from_the_environment(path):
    reads = set(environment_reads(ast.parse(path.read_text())))
    assert reads <= {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
