"""Import structure: `import wgchan` loads no layer, each exported name loads
its own layer on first use, and each CLI command loads only the layers it
runs.  Every import check runs in a fresh interpreter, since the test process
has long since imported everything.  Also: no exported callable takes a cap
or tolerance argument."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wgchan

EXPORTS = {
    "perm": [
        "CycleType", "LabeledIndex", "Permutation", "all_permutations", "compose", "cycle_type",
        "distance", "geodesics", "identity", "is_geodesic", "length", "make_gamma_delta", "mobius",
        "non_crossing_partitions", "transposition",
    ],
    "weingarten": [
        "IndexTuple", "McEstimate", "WgTable", "haar_moment", "haar_moment_mc", "wg_asymptotic",
        "wg_cycle_exact", "wg_exact",
    ],
    "moments": [
        "ChoiceFunction", "ExponentReport", "MomentPrediction", "RegimeParams",
        "asymptotic_moment_conjugate", "choice_functions", "choice_to_permutation",
        "exact_moment_conjugate", "exact_moment_pinched", "minimize_S", "minimize_S1", "minimize_S2",
        "minimize_S_pinched", "reference_S1", "reference_S2", "vanishing_cancellation_check",
    ],
    "montecarlo": [
        "ChannelSpec", "DensityMatrix", "EnsembleReport", "FactoredDensityMatrix", "apply_channel",
        "bell_state", "conjugate_spec", "independent_spec", "moment_ensemble", "product_output",
        "run_ensemble", "sample_haar",
    ],
    "freeprob": [
        "EntropyPrediction", "MarchenkoPastur", "entropy_prediction", "gamma_t_vector", "mp_density",
        "mp_entropy_integral", "mp_moment", "naive_bound", "vn_entropy",
    ],
}

LAYERS = ["perm", "weingarten", "moments", "montecarlo", "freeprob"]


def run_fresh(script: str) -> None:
    """Run `script` in a new interpreter on this checkout's source."""
    prelude = f"import sys\nLAYERS = {LAYERS!r}\n"
    prelude += "def loaded():\n    return sorted(m for m in LAYERS if 'wgchan.' + m in sys.modules)\n"
    src = str(Path(wgchan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", prelude + script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_import_wgchan_loads_no_layer():
    run_fresh(
        """
import wgchan
assert loaded() == [], loaded()
assert "numpy" not in sys.modules
"""
    )


def test_exports_resolve_to_their_modules():
    run_fresh(
        f"""
import importlib
import wgchan
from wgchan import wg_exact
assert loaded() == ["perm", "weingarten"], loaded()
assert wg_exact is importlib.import_module("wgchan.weingarten").wg_exact
for module, names in {EXPORTS!r}.items():
    layer = importlib.import_module("wgchan." + module)
    for name in names:
        assert getattr(wgchan, name) is getattr(layer, name), name
        assert name in dir(wgchan), name
try:
    wgchan.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown name resolved")
"""
    )


def test_help_usage_errors_and_cli_checks_load_no_numpy():
    run_fresh(
        """
import contextlib
import io
import runpy
for argv, code in (
    (["--help"], 0),
    (["wg", "--help"], 0),
    (["wg", "--n", "x", "--p", "2"], 2),
    (["no-such-command"], 2),
    (["wg", "--n", "2", "--p", "5"], 2),
    (["minimize", "--p", "0", "--d", "1"], 2),
    (["compare", "--n", "3", "--k", "3", "--trials", "1", "--seed", "1", "--strict"], 2),
    (["simulate", "--n", "8", "--trials", "2", "--seed", "-1"], 2),
    (["simulate", "--n", "8", "--trials", "2", "--seed", "1", "--t", "1/0"], 2),
    (["simulate", "--n", "8", "--c", "16", "--d=-1", "--trials", "1", "--seed", "1"], 2),
):
    sys.argv = ["wgchan", *argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            runpy.run_module("wgchan.cli", run_name="__main__")
        except SystemExit as exc:
            assert exc.code == code, (argv, exc.code)
        else:
            raise AssertionError(f"{argv} did not exit")
    assert "numpy" not in sys.modules, argv
    assert loaded() == [], (argv, loaded())
"""
    )


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["wg", "--n", "9", "--p", "7"], ["perm", "weingarten"]),
        (["exact-moments", "--n", "3", "--k", "3", "--p-max", "3", "--pinched"], ["moments", "perm", "weingarten"]),
        (["minimize", "--p", "2", "--d", "1", "--check-tables"], ["moments", "perm", "weingarten"]),
    ],
    ids=["wg", "exact-moments", "minimize"],
)
def test_exact_commands_load_only_their_layers(argv, layers):
    run_fresh(
        f"""
import contextlib
import io
import wgchan.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert wgchan.cli.main({argv!r}) == 0
assert loaded() == {layers!r}, loaded()
"""
    )


def test_no_cap_or_tolerance_parameters():
    # size caps and tolerances are module constants checked at the entry
    # point, and trials run serially; wg_exact keeps max_order because the
    # benchmark passes it
    objects = {name: getattr(wgchan, name) for name in wgchan.__all__}
    for cls in (wgchan.MarchenkoPastur, wgchan.DensityMatrix):
        objects.update({f"{cls.__name__}.{name}": f for name, f in vars(cls).items() if inspect.isfunction(f)})
    knobs = {"cap", "max_order", "max_degree", "nodes", "tol", "threads", "check", "scale", "drop_largest"}
    found = {
        (name, param)
        for name, obj in objects.items()
        if callable(obj)
        for param in inspect.signature(obj).parameters
        if param in knobs
    }
    assert found == {("wg_exact", "max_order")}


def test_exact_caches_are_not_keyed_by_dimension():
    # the exact layers cache work per order, wiring or shape; a cache keyed
    # by a dimension would, on a warm loop over the same points, replace the
    # sum it times with a dictionary lookup
    import importlib

    cached = {}
    for module in ("perm", "weingarten", "moments"):
        layer = importlib.import_module("wgchan." + module)
        for name, obj in vars(layer).items():
            if hasattr(obj, "cache_info") and obj.__module__ == layer.__name__:
                cached[f"{module}.{name}"] = set(inspect.signature(obj).parameters)
    assert {"perm.partitions", "perm.group_table", "moments._irrep_polynomials"} <= set(cached)
    keyed = {name for name, params in cached.items() if params & {"n", "k", "m", "nk"}}
    assert keyed == set()


def _scipy_imports(node: ast.AST) -> int:
    return sum(
        isinstance(sub, ast.Import) and any(alias.name.split(".")[0] == "scipy" for alias in sub.names)
        or isinstance(sub, ast.ImportFrom) and (sub.module or "").split(".")[0] == "scipy"
        for sub in ast.walk(node)
    )


def test_montecarlo_imports_scipy_only_in_streamed_gram():
    # the streamed complex Gram is the one route that needs scipy's BLAS, so
    # no other path pays for the import
    tree = ast.parse(Path(wgchan.__file__).with_name("montecarlo.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert _scipy_imports(tree) == _scipy_imports(functions["_streamed_gram"]) == 1
