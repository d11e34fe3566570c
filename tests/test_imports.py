"""What each CLI command and ``import chaintrick`` load, that no module
generates code as it loads, the bytecode the in-place build leaves, the
BLAS threads beside a command, and the lazy public names of the
package."""

import ast
import importlib
import os
import shutil
import subprocess
import sys
from importlib.util import cache_from_source
from pathlib import Path

import pytest

import chaintrick

ROOT = Path(__file__).resolve().parent.parent

# runs a CLI command in a fresh interpreter and prints its exit code and
# the chaintrick modules it loaded
_LOADED = """
import contextlib, io, sys
from chaintrick.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("chaintrick.")))
"""

_CLI = {"_version", "cli", "errors", "model_core"}
_SIMULATOR = {"_core", "_core._dopri", "chain_system", "export", "simulator"}
_SWEEP = {"export", "hopf_locator", "sweep"}


def _loaded(argv):
    out = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv], capture_output=True, text=True, check=True
    ).stdout.split()
    return int(out[0]), {name.removeprefix("chaintrick.") for name in out[1:]}


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["equilibrium"], set()),
        (["stability"], {"hopf_locator", "char_poly"}),
        (["stability", "--m", "3"], {"hopf_locator"}),
        (["hopf"], {"hopf_locator"}),
        (["hopf", "--vary", "alpha"], {"hopf_locator"}),
        (["hopf", "--vary", "g"], {"hopf_locator"}),
        (["simulate", "--horizon", "10"], _SIMULATOR),
        (["simulate", "--horizon", "10", "--out", "OUT"], _SIMULATOR),
        (["sweep", "--alpha-count", "3", "--out", "OUT"], _SWEEP),
        (["table2", "--m-list", "1"], _SWEEP),
    ],
)
def test_each_command_loads_only_what_it_runs(tmp_path, argv, extra):
    code, loaded = _loaded([str(tmp_path / "x.csv") if a == "OUT" else a for a in argv])
    assert code == 0
    assert loaded == _CLI | extra


def test_import_chaintrick_loads_only_the_version():
    code = (
        "import sys, chaintrick;"
        " print(*sorted(m for m in sys.modules if 'chaintrick' in m or m == 'numpy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["chaintrick", "chaintrick._version"]


def _code_generators(path):
    """The ``dataclasses`` imports and the calls of ``exec``, ``eval`` and
    ``compile`` in the module at ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            modules = []
        found += [m for m in modules if m.split(".")[0] == "dataclasses"]
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "builtins":
                name = func.attr
            else:
                name = getattr(func, "id", None)
            if name in ("exec", "eval", "compile"):
                found.append(f"{name}()")
    return found


def test_no_module_generates_code():
    modules = sorted((ROOT / "src" / "chaintrick").rglob("*.py"))
    assert len(modules) > 10
    found = {p.name: _code_generators(p) for p in modules}
    assert {name: f for name, f in found.items() if f} == {}


def test_the_scan_sees_dataclasses_and_exec(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import dataclasses.x\nfrom dataclasses import dataclass\n"
                      "import builtins\nexec('1')\nbuiltins.compile('1', '', 'eval')\n"
                      "re.compile('x')\n", encoding="utf-8")
    assert _code_generators(module) == ["dataclasses.x", "dataclasses", "exec()", "compile()"]


# imports the package's modules and runs two commands, with the builtins
# that make code from text recording their callers, and prints the calls
# from outside the import system (which compiles and runs modules), and
# whether dataclasses was loaded
_GENERATED = """
import builtins, contextlib, io, sys
import numpy, argparse, json
calls = []
def recording(name, real):
    def call(*args, **kwargs):
        calls.append(f"{sys._getframe(1).f_globals.get('__name__')}: {name}")
        return real(*args, **kwargs)
    return call
for name in ("exec", "eval", "compile"):
    setattr(builtins, name, recording(name, getattr(builtins, name)))
import chaintrick.cli, chaintrick.chain_system, chaintrick.char_poly, chaintrick.sweep
import chaintrick.simulator
with contextlib.redirect_stdout(io.StringIO()):
    chaintrick.cli.main(["stability", "--m", "2"])
    chaintrick.cli.main(["hopf", "--vary", "g"])
print(sorted({c for c in calls if not c.startswith("importlib.")}), "dataclasses" in sys.modules)
"""


def test_importing_the_package_generates_no_code():
    out = subprocess.run([sys.executable, "-c", _GENERATED], capture_output=True, text=True,
                         check=True).stdout
    assert out == "[] False\n"


def _built_copy(dest, **env):
    """``dest/src`` after copying the checkout's build inputs, without
    bytecode or built kernel, to ``dest`` and running the in-place build
    there with no ``SOURCE_DATE_EPOCH`` but the one in ``env``; the build
    must have compiled the kernel."""
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy2(ROOT / name, dest / name)
    shutil.copytree(ROOT / "src", dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info", "*.so"))
    clean = {k: v for k, v in os.environ.items() if k != "SOURCE_DATE_EPOCH"}
    subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"], cwd=dest,
                   env={**clean, **env}, capture_output=True, timeout=120, check=True)
    assert list((dest / "src" / "chaintrick" / "_core").glob("_chain*.so"))
    return dest / "src"


def _cli(src, *argv, flags=()):
    """A fresh ``python -m chaintrick.cli`` that imports the package from
    ``src`` and writes no bytecode itself."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *flags, "-m", "chaintrick.cli", *argv],
                          cwd=src.parent, env=env, capture_output=True, text=True)


class TestInPlaceBuild:
    def test_every_module_runs_from_the_bytecode_it_leaves(self, tmp_path):
        src = _built_copy(tmp_path)
        modules = sorted((src / "chaintrick").rglob("*.py"))
        assert len(modules) > 10
        assert [p for p in modules if not Path(cache_from_source(p)).is_file()] == []
        proc = _cli(src, "hopf", "--json", "--vary", "T", flags=["-v"])
        assert proc.returncode == 0
        lines = proc.stderr.splitlines()
        compiled = [line for line in lines if line.startswith("# code object from")
                    and str(src) in line and line.rstrip("'").endswith(".py")]
        assert compiled == []
        cli = src / "chaintrick" / "cli.py"
        assert f"# {cache_from_source(cli)} matches {cli}" in lines

    @pytest.mark.parametrize("env, flags", [({}, 0), ({"SOURCE_DATE_EPOCH": "0"}, 0b11)],
                             ids=["timestamp", "checked-hash"])
    def test_an_edit_after_the_build_takes_effect(self, tmp_path, env, flags):
        src = _built_copy(tmp_path, **env)
        version = src / "chaintrick" / "_version.py"
        # the invalidation mode in the header's flags: never unchecked-hash
        assert Path(cache_from_source(version)).read_bytes()[4:8] == bytes([flags, 0, 0, 0])
        assert _cli(src, "--version").stdout == f"{chaintrick.__version__}\n"
        version.write_text('__version__ = "0.1.0+edited"\n', encoding="utf-8")
        mtime = version.stat().st_mtime_ns + 2 * 10**9
        os.utime(version, ns=(mtime, mtime))
        assert _cli(src, "--version").stdout == "0.1.0+edited\n"

    def test_the_build_works_from_another_directory(self, tmp_path):
        checkout, elsewhere = tmp_path / "checkout", tmp_path / "elsewhere"
        elsewhere.mkdir(parents=True)
        checkout.mkdir()
        for name in ("setup.py", "pyproject.toml"):
            shutil.copy2(ROOT / name, checkout / name)
        shutil.copytree(ROOT / "src", checkout / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info", "*.so"))
        subprocess.run([sys.executable, str(checkout / "setup.py"), "build_ext", "--inplace"],
                       cwd=elsewhere, capture_output=True, timeout=120, check=True)
        assert list((checkout / "src" / "chaintrick" / "_core").glob("_chain*.so"))
        assert list(elsewhere.iterdir()) == []
        code = "from chaintrick._core import backend_name; print(backend_name())"
        env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
        proc = subprocess.run([sys.executable, "-c", code], cwd=elsewhere, env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout == "compiled\n"


#: the variables that set numpy's BLAS thread count
_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


def _run(code, **env):
    """stdout of ``code`` in a fresh interpreter whose environment sets no
    BLAS thread count but the ones in ``env``."""
    clean = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    return subprocess.run(
        [sys.executable, "-c", code], env={**clean, **env},
        capture_output=True, text=True, check=True,
    ).stdout


_THREADS = "import os, chaintrick.cli; print(len(os.listdir('/proc/self/task')))"
_KEEPS_ENVIRON = (
    "import os, {first}; before = dict(os.environ); {then}; print(dict(os.environ) == before)"
)


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
    reason="counts the threads in /proc/self/task on a host with 2 or more cores",
)
class TestBlasThreads:
    def test_the_cli_runs_on_one_thread(self):
        assert _run(_THREADS) == "1\n"

    @pytest.mark.parametrize("var", ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"])
    def test_a_count_set_by_the_caller_wins(self, var):
        assert _run(_THREADS, **{var: "2"}) == "2\n"

    def test_numpy_loaded_first_keeps_the_environment(self):
        code = _KEEPS_ENVIRON.format(first="numpy", then="import chaintrick.cli")
        assert _run(code) == "True\n"

    def test_the_library_keeps_the_environment(self):
        code = _KEEPS_ENVIRON.format(first="chaintrick", then="chaintrick.hopf_in_T")
        assert _run(code) == "True\n"


#: the public names of the package, sorted
PUBLIC = [
    "BifurcationCurve", "ChainSystem", "CharCoeffsM1", "CharCoeffsM2", "CycleMetrics",
    "DANA_MALGRANGE", "Equilibrium", "GIntervalReport", "HopfPoint", "InvestmentParams",
    "MacroParams", "StabilityVerdict", "Trajectory", "__version__", "build", "coeffs_m1",
    "coeffs_m2", "constant_history_state", "critical_delays", "cubic_discriminant",
    "curve_T_vs_alpha", "curve_T_vs_g", "cycle_metrics", "equilibrium", "equilibrium_state",
    "errors", "growth_interval", "hopf_in_T", "hopf_in_T_m1", "hopf_in_T_m2",
    "hopf_in_alpha", "hopf_in_g", "integrate", "investment_derivs", "jacobian", "phi",
    "phi_prime", "phi_quartic", "phi_quartic_deriv", "rhs", "routh_hurwitz_cubic",
    "routh_hurwitz_quartic", "solve_x_star", "surface_T", "table_g_bifurcations",
]


class TestLazyNames:
    def test_all_is_pinned(self):
        assert sorted(chaintrick.__all__) == PUBLIC

    def test_every_name_is_its_modules_object(self):
        for module, names in chaintrick._EXPORTS.items():
            home = importlib.import_module(f"chaintrick.{module}")
            for name in names:
                assert getattr(chaintrick, name) is (home if name == module else getattr(home, name))

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from chaintrick import *", namespace)
        for name in PUBLIC:
            assert namespace[name] is getattr(chaintrick, name)

    def test_dir_lists_every_name(self):
        assert set(PUBLIC) <= set(dir(chaintrick))

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            chaintrick.no_such_name
        with pytest.raises(ImportError):
            from chaintrick import no_such_name  # noqa: F401
