"""The public API takes no threshold or guard as an argument, and reads no environment.

Thresholds are read from ``freeferm.tolerances.DEFAULT`` where they are used;
the ``spectrum`` size guard and the symmetry ancilla are fixed behaviour.
"""
import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import freeferm

RETIRED = {"tol", "max_modes", "auto_ancilla"}
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _public_callables():
    for info in pkgutil.iter_modules(freeferm.__path__):
        mod = importlib.import_module(f"freeferm.{info.name}")
        names = getattr(mod, "__all__", [name for name in vars(mod) if not name.startswith("_")])
        for name in names:
            obj = getattr(mod, name)
            if getattr(obj, "__module__", None) != mod.__name__ or not callable(obj):
                continue
            yield f"{mod.__name__}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{mod.__name__}.{name}.{attr}", member


def test_no_public_callable_takes_a_retired_option():
    offenders = []
    for qualname, obj in _public_callables():
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        offenders += [f"{qualname}({p})" for p in params if p in RETIRED]
    assert offenders == []


def test_no_module_reads_the_environment():
    """Every setting is a CLI option or an argument; no environment variable changes a run."""
    offenders = []
    for path in sorted(Path(freeferm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "os":
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} os.{name}" for name in names
                          if name in ENVIRONMENT]
    assert offenders == []
