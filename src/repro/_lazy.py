"""Lazy package exports (PEP 562): the one helper every ``__init__`` uses.

A package ``__init__`` under :mod:`repro` declares its public names as
a ``{submodule: names}`` table and imports nothing else::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "convergence": ("ResidualRule", "relative_residual"),
        "fleet": ("FleetKernel",),
    })

``from repro.core import ResidualRule`` then loads
``repro.core.convergence`` and nothing beside it, so importing a
package costs what the caller uses of it.  That is what keeps a spawned
shard worker, which needs numpy and a sweep loop, from importing the
simulator, the server, asyncio and scipy on its way up (PERFORMANCE.md
"Cold start").
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, table: dict):
    """``(__all__, __getattr__, __dir__)`` for the package *package*.

    *table* maps each submodule to the names it provides.  A name
    resolves on first access — by importing its submodule — and is then
    stored on the package, so ``__getattr__`` runs once per name.  The
    submodules of the table resolve the same way
    (``repro.core.fleet`` after ``import repro.core``).
    """
    owner = {name: sub for sub, names in table.items() for name in names}

    def __getattr__(name: str):
        sub = owner.get(name, name)
        if sub not in table:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = importlib.import_module(f"{package}.{sub}")
        if name in owner:
            value = getattr(value, name)
            setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])).union(owner, table))

    return list(owner), __getattr__, __dir__
