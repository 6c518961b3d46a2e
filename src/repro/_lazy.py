"""Lazy package re-exports (PEP 562).

Every package ``__init__`` in :mod:`repro` declares its public names
with :func:`lazy_exports` instead of importing its submodules.  A name
is imported from its submodule on first access (``repro.harness.
standalone``, ``from repro.harness import standalone``) and then cached
in the package, so importing a package costs nothing and a run loads
only the modules it uses.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable, Mapping


def _load(module: str):
    """Import ``module`` by absolute name through ``__import__``, which
    (unlike :func:`importlib.import_module`) ``-X importtime`` reports."""
    __import__(module)
    return sys.modules[module]


def lazy_exports(package: str, exports: Mapping[str, Iterable[str]],
                 submodules: Iterable[str] = ()
                 ) -> tuple[list[str], Callable, Callable]:
    """The ``(__all__, __getattr__, __dir__)`` of ``package``.

    ``exports`` maps a module path relative to the package (``".colocate"``,
    ``"..errors"``) to the public names it provides; ``submodules`` names
    subpackages the package exposes as attributes.  ``__all__`` lists the
    names in declaration order, submodules last.
    """
    origin = {}
    for module, names in exports.items():
        level = len(module) - len(module.lstrip("."))
        base = package.rsplit(".", level - 1)[0]
        for name in names:
            origin[name] = f"{base}.{module[level:]}"
    subs = tuple(submodules)
    public = [*origin, *subs]

    def __getattr__(name: str):
        module = origin.get(name)
        if module is not None:
            value = getattr(_load(module), name)
        elif name in subs:
            value = _load(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(public))

    return public, __getattr__, __dir__
