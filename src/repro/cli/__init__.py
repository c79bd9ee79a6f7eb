"""Command-line front-end (``repro-trace``)."""

from __future__ import annotations

from typing import Any

__all__ = ["main"]


def __getattr__(name: str) -> Any:
    # Lazy: ``python -m repro.cli.main`` imports this package first, and an
    # eager ``from .main import main`` would load the module runpy is about
    # to execute as ``__main__`` (a second copy, and a RuntimeWarning).
    if name == "main":
        from .main import main

        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
