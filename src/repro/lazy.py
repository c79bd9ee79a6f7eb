"""Lazy package exports (PEP 562).

A package lists its public names by defining module; each name is imported
on first use, so importing the package stays cheap and a caller pays only
for the modules whose names it touches.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    namespace: dict[str, Any], exports: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(names, __getattr__, __dir__)`` for the package whose globals are
    ``namespace``.

    ``exports`` maps a submodule name to the public names it defines.  The
    returned ``__getattr__`` imports a name's submodule on first access and
    caches the value in ``namespace``; a submodule name itself resolves to
    the submodule.  ``names`` lists every public name, for ``__all__``.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name in exports:
            return importlib.import_module(f"{package}.{name}")
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return list(origin), __getattr__, __dir__
