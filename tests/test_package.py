import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import ridgeiv


def test_every_exported_name_resolves():
    modules = [ridgeiv] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(ridgeiv.__path__, "ridgeiv.")
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert missing == []


def test_the_package_re_exports_each_library_modules_names_once():
    # each library module's __all__ is the one list of its public names;
    # verify, cli and _fork are imported by name, never re-exported
    from ridgeiv import _fork, asymptotics, cli, dgp, estimators, montecarlo, verify

    modules = (asymptotics, dgp, estimators, montecarlo)
    names = [name for module in modules for name in module.__all__] + ["__version__"]
    assert ridgeiv.__all__ == names
    assert len(set(names)) == len(names)
    mismatched = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if getattr(ridgeiv, name) is not getattr(module, name)
    ]
    assert mismatched == []
    private = {name for module in (cli, verify, _fork) for name in module.__all__}
    assert private & set(vars(ridgeiv)) == set()


def test_importing_the_package_and_cli_leaves_heavy_modules_unloaded(tmp_path):
    # numpy.random alone adds 5.5 MiB to the caller's resident memory; the
    # draws import it on first use, in the forked workers when they run there
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, ridgeiv, ridgeiv.cli\n"
        "print(sorted({'numpy.random', 'multiprocessing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_forked_runs_leave_numpy_random_out_of_the_caller(tmp_path):
    # the draws run in forked workers, so numpy.random is imported there and
    # never in the caller, whose peak memory would grow by 5.5 MiB; a seed
    # derived or a Philox built in the caller would import it.  No run
    # imports numpy.ma, which np.quantile, np.percentile and np.median load on
    # first use: 10-13 ms and 1.3 MiB of resident memory in a fresh numpy
    # process, and 0.6-1.1 MiB of the benchmark's median peak on each
    # workload (2-core x86-64 host, numpy 2.4.6).  single-run draws its
    # dataset in the caller, so it comes last.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import contextlib, io, os, sys\n"
        "import ridgeiv._fork as _fork\n"
        "from ridgeiv.cli import run_cli\n"
        "_fork._usable_cpus = lambda: 2\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(None) or fork()\n"
        "codes, masked = [], []\n"
        "def run(*args):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(run_cli(list(args)))\n"
        "    masked.append('numpy.ma' in sys.modules)\n"
        "run('sweep-pi', '--reps', '100', '--out', 'out')\n"
        "run('sweep-beta', '--reps', '100', '--raw', '--plots', '--out', 'out')\n"
        "run('verify-asymptotics', '--regime', 'all', '--reps', '500')\n"
        "print(len(forks) >= 6, 'numpy.random' in sys.modules)\n"
        "run('single-run')\n"
        "print(codes, masked)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True False\n[0, 0, 0, 0] [False, False, False, False]\n"


def test_no_module_calls_a_numpy_order_statistic_that_imports_numpy_ma():
    # np.quantile and np.percentile reach numpy.ma through np.unique, and
    # np.median through its NaN check; asymptotics._linear_quantiles and
    # _median give their bits without it.  This covers the paths that the
    # fork test above does not run.
    banned = {"quantile", "percentile", "median", "unique"}
    banned |= {f"nan{name}" for name in banned - {"unique"}}
    calls = []
    for path in sorted(Path(ridgeiv.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in {"np", "numpy"}
                and node.func.attr in banned
            ):
                calls.append(f"{path.name}:{node.lineno} np.{node.func.attr}")
    assert calls == []


def test_the_fork_mapper_imports_no_ridgeiv_module():
    # _fork maps any task function over forked workers and knows nothing of
    # the draws: montecarlo imports it, never the other way round
    source = (Path(ridgeiv.__file__).parent / "_fork.py").read_text()
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    assert [name for name in imported if name.startswith((".", "ridgeiv"))] == []


def test_only_the_unit_shock_drawer_builds_a_generator():
    # one drawer turns a seed into the model's unit shocks for every
    # simulated sample, generate_dataset's and each Monte Carlo rep's alike:
    # dgp._UnitShocks builds the one Philox and Generator a thread re-keys
    constructors = {"Philox", "Generator", "default_rng", "RandomState"}
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}"
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in constructors
                and isinstance(child.func.value, ast.Attribute)
                and child.func.value.attr == "random"
                and isinstance(child.func.value.value, ast.Name)
                and child.func.value.value.id in {"np", "numpy"}
            ):
                calls.append((scope, f"{scope}:{child.lineno} np.random.{child.func.attr}"))
            visit(child, inner)

    for path in sorted(Path(ridgeiv.__file__).parent.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert calls
    assert [call for scope, call in calls if scope != "dgp._UnitShocks.__init__"] == []


def test_only_dgp_knows_the_model():
    # dgp draws the unit shocks, reduces them and maps them to the model's
    # covariances; the other modules take its samples, moments and
    # covariances and never restate a loading or the reduction
    banned = {"_unit_shocks", "_UnitShocks", "einsum", "effective_pi1", "eps_loading"}
    references = []
    for path in sorted(Path(ridgeiv.__file__).parent.rglob("*.py")):
        if path.name == "dgp.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in banned:
                references.append(f"{path.name}:{node.lineno} {name}")
    assert references == []
