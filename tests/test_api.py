"""The public API takes no threshold or guard as an argument.

Thresholds are read from ``freeferm.tolerances.DEFAULT`` where they are used;
the ``spectrum`` size guard and the symmetry ancilla are fixed behaviour.
"""
import importlib
import inspect
import pkgutil

import freeferm

RETIRED = {"tol", "max_modes", "auto_ancilla"}


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
