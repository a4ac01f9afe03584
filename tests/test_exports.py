"""The package namespace: every exported name, and what a fresh process loads.

``import loopsv`` loads no module of the package; each exported name loads
its module on first use.  pytest has imported every module by the time these
tests run, so the load checks start fresh interpreters.
"""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import loopsv
from support import cli_env

MODULES = [info.name for info in pkgutil.iter_modules(loopsv.__path__) if info.name != "__main__"]

# what a window sweep or an lsv call that reads no document must never load
ON_DEMAND = ["automorphisms", "cohomology", "derivations", "solvers", "parser", "laurent", "cli"]


def declared_names() -> dict:
    """Each name a module lists in ``__all__``, with that module."""
    return {
        n: module
        for module in (importlib.import_module(f"loopsv.{name}") for name in MODULES)
        for n in getattr(module, "__all__", ())
    }


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"loopsv.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_exports_are_the_module_lists():
    # every name a module declares public is exported by the package, and nothing else is
    declared = set(declared_names())
    exported = {n for n in dir(loopsv) if not n.startswith("_")} - set(MODULES)
    assert sorted(exported - declared) == [] and sorted(declared - exported) == []


def test_each_export_is_the_object_its_module_defines():
    for name, module in declared_names().items():
        assert getattr(loopsv, name) is getattr(module, name), name


def test_star_import_gives_every_export():
    namespace = {}
    exec("from loopsv import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(declared_names())


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'NoSuchName'"):
        loopsv.NoSuchName
    assert not hasattr(loopsv, "window_keys")
    with pytest.raises(ImportError):
        exec("from loopsv import NoSuchName", {})


def loaded_by(code: str) -> list:
    """The modules a fresh interpreter loads running ``code``, past those it starts with."""
    script = f"import sys\nbefore = set(sys.modules)\n{code}\nprint(*sorted(set(sys.modules) - before))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_a_window_sweep_loads_only_the_core():
    loaded = loaded_by(
        "import loopsv\n"
        "from loopsv import GroupData, LoopAlgebra, Window\n"
        "LoopAlgebra(GroupData.default()).window_keys(Window(2, 2))"
    )
    assert "loopsv.algebra" in loaded
    assert [m for m in loaded if m in {f"loopsv.{name}" for name in ON_DEMAND}] == []
    assert "dataclasses" not in loaded


def test_import_loopsv_loads_no_module_of_the_package():
    assert [m for m in loaded_by("import loopsv") if m.startswith("loopsv.")] == []


@pytest.mark.parametrize(
    "argv, never",
    [
        # bracket parses its two arguments, so it loads the parser and the Laurent module
        (["bracket", "L(1,0)", "L(2,3)"], ON_DEMAND[:4]),
        (["check", "jacobi", "--gamma-height", "1", "--loop-bound", "0"], ON_DEMAND[:6]),
    ],
)
def test_a_command_line_call_loads_only_what_its_subcommand_uses(argv, never):
    # -X importtime names, on stderr, each module the real entry point loads
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "loopsv", *argv],
        capture_output=True,
        text=True,
        env=cli_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert {"loopsv.cli", "loopsv.algebra"} <= loaded
    assert sorted(loaded & {f"loopsv.{name}" for name in never}) == []
