"""Lazy package exports: a package's public names, imported on first use.

Each package ``__init__`` that re-exports names from its submodules
declares which submodule defines each name and passes that table to
:func:`lazy_exports`.  The PEP 562 module ``__getattr__`` it returns
imports a submodule only when one of its names is first read, so
``import repro`` loads no numpy and a command loads only the modules it
runs, while ``from repro.X import Name``, ``__all__`` and ``dir()``
work as if the package had imported everything.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(namespace: Dict[str, object],
                 exports: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of a lazy package.

    Args:
        namespace: The package's ``globals()``.  A resolved name is
            stored there, so later reads bypass ``__getattr__``.
        exports: Submodule, relative to the package (``".config"``),
            mapped to the public names it defines.

    An unknown name raises :class:`AttributeError`, which ``hasattr``
    and ``from package import submodule`` rely on.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
