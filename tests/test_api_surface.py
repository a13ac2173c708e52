"""Public API hygiene: every exported symbol exists and is documented."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.desim",
    "repro.net",
    "repro.platforms",
    "repro.simx",
    "repro.p2psap",
    "repro.p2pdc",
    "repro.dperf",
    "repro.dperf.minic",
    "repro.apps",
    "repro.analysis",
    "repro.experiments",
    "repro.scenarios",
    "repro.serve",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports_and_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{name} does not declare __all__"
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", [p for p in PACKAGES if p != "repro"])
def test_public_classes_and_functions_documented(name):
    module = importlib.import_module(name)
    undocumented = []
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not inspect.getdoc(obj):
                undocumented.append(symbol)
    assert not undocumented, f"{name}: undocumented exports {undocumented}"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_runtime_import_leaves_networkx_out():
    """networkx is only the route tests' reference: importing the
    engine (what every fleet worker and CLI run pays) must not load
    it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys, repro.scenarios, repro.fleet, repro.serve; "
            "assert 'networkx' not in sys.modules, 'networkx imported'")
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
