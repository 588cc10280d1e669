"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package init lists the names it re-exports and the module each comes
from; nothing is imported until a name is first read.  A socket worker
(``python -m repro.worker``) is a fresh interpreter on every spawn, so a
package init that eagerly pulled in its whole subtree would make every
worker start import the parent-only stack (``build_topology``, the parallel
cluster, data generators) and optional dependencies like networkx.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` re-exporting ``exports``.

    ``exports`` maps a module to the names the package re-exports from
    it.  A resolved name is cached in the package namespace, so only the
    first read of each goes through ``__getattr__``.  Any other
    attribute falls back to the package's submodule of that name, as
    after an eager init that imported it.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
            namespace[name] = value
            return value
        if not name.startswith("_"):
            submodule = f"{package}.{name}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
