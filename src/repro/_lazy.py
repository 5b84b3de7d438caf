"""Lazy package re-exports (PEP 562).

A package ``__init__`` that only re-exports names declares where each
one lives and imports nothing up front::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".engine": ("Simulator", "DeadlockError"),
    })

The first access of ``package.Simulator`` (attribute access, ``from
package import Simulator`` or ``from package import *``) imports
``package.engine`` and caches the value in the package namespace, so a
process pays only for the submodules it actually uses.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a submodule (relative to ``package``) to the public
    names it provides.
    """
    origin: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | origin.keys())

    return sorted(origin), __getattr__, __dir__
