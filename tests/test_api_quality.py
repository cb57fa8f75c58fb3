"""API quality gates: docstrings, exports, and import hygiene.

Cheap structural checks that keep the public surface documented and
coherent as the library grows — every public module, class, and function
must carry a docstring, and every ``__all__`` name must resolve.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

PUBLIC_PACKAGES = [
    "repro",
    "repro.geometry",
    "repro.crypto",
    "repro.index",
    "repro.gnn",
    "repro.datasets",
    "repro.dummies",
    "repro.encoding",
    "repro.partition",
    "repro.stats",
    "repro.protocol",
    "repro.core",
    "repro.attacks",
    "repro.baselines",
    "repro.roadnet",
    "repro.analysis",
    "repro.metrics",
    "repro.bench",
]


def all_modules():
    names = set(PUBLIC_PACKAGES)
    for package_name in PUBLIC_PACKAGES:
        package = importlib.import_module(package_name)
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                names.add(f"{package_name}.{info.name}")
    return sorted(names)


@pytest.mark.parametrize("module_name", all_modules())
def test_module_importable_and_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), f"{module_name} lacks a docstring"


@pytest.mark.parametrize("module_name", all_modules())
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("module_name", all_modules())
def test_public_callables_documented(module_name):
    module = importlib.import_module(module_name)
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-exports are documented at their definition site
        assert obj.__doc__ and obj.__doc__.strip(), (
            f"{module_name}.{name} lacks a docstring"
        )
        if inspect.isclass(obj):
            for method_name, method in vars(obj).items():
                if method_name.startswith("_") or not inspect.isfunction(method):
                    continue
                documented = bool(method.__doc__ and method.__doc__.strip())
                if not documented:
                    # Overrides inherit their contract from a documented base.
                    for base in obj.__mro__[1:]:
                        base_method = getattr(base, method_name, None)
                        if base_method is not None and (
                            base_method.__doc__ or ""
                        ).strip():
                            documented = True
                            break
                assert documented, (
                    f"{module_name}.{name}.{method_name} lacks a docstring"
                )


def test_version_is_exposed():
    assert repro.__version__


def test_no_circular_import_at_top_level():
    # A fresh import of the root package must pull in the whole core API.
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_no_hypot_in_library():
    """The library has one distance, ``sqrt(dx*dx + dy*dy)``.

    ``math.hypot`` and ``np.hypot`` round differently from it and from each
    other, and a scalar/numpy pair that disagrees breaks the exact numpy
    kGNN walk and the sanitizer's reference arithmetic.
    """
    offenders = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "hypot":
                offenders.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and any(
                alias.name == "hypot" for alias in node.names
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"hypot used at {offenders}"
