"""Layering rules (LY4xx): the module dependency DAG.

The package layers, leaf-ward to root-ward::

    errors, version, logging_util, lazy    (leaves: import nothing of ours)
    config                                  -> errors
    testing                                 -> errors  (fault-injection hooks)
    trace                                   -> errors, config, logging_util,
                                               testing, lazy
    platform                                -> + trace
    media                                   -> + platform
    analysis                                -> errors, config, trace,
                                               media, logging_util, testing,
                                               lazy
    experiments                             -> everything below cli
    devtools                                -> errors only
    cli                                     -> everything (except devtools)
    repro/__init__                          -> facade, re-exports freely

* **LY401** — an import that violates the DAG (e.g. ``trace`` importing
  ``analysis`` would invert the pipeline and invite cycles).
* **LY402** — nothing outside ``repro.cli`` imports ``repro.cli``; the
  CLI is the outermost shell, not a library.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, Severity
from ..source import ModuleSource
from .base import Checker, Rule

#: layer -> layers it may import from (besides itself).
ALLOWED_IMPORTS: dict[str, frozenset[str]] = {
    "errors": frozenset(),
    "version": frozenset(),
    "logging_util": frozenset(),
    "lazy": frozenset(),
    "config": frozenset({"errors"}),
    "testing": frozenset({"errors"}),
    "trace": frozenset({"errors", "config", "logging_util", "testing", "lazy"}),
    "platform": frozenset({"errors", "config", "logging_util", "trace"}),
    "media": frozenset({"errors", "config", "logging_util", "trace", "platform"}),
    "analysis": frozenset(
        {"errors", "config", "logging_util", "trace", "media", "testing", "lazy"}
    ),
    "experiments": frozenset(
        {"errors", "config", "logging_util", "trace", "platform", "media", "analysis"}
    ),
    "devtools": frozenset({"errors", "version"}),
    "cli": frozenset(
        {
            "errors",
            "version",
            "config",
            "logging_util",
            "trace",
            "platform",
            "media",
            "analysis",
            "experiments",
            "testing",
        }
    ),
}


def _layer_of(module: str) -> str | None:
    """Layer name for a dotted ``repro...`` module, else None."""
    if module == "repro" or not module.startswith("repro."):
        return None
    return module.split(".")[1]


def _imported_repro_modules(source: ModuleSource) -> Iterator[tuple[str, ast.stmt]]:
    """Absolute dotted names of every repro-internal import in ``source``."""
    # Package of this module: for foo/__init__.py the module name *is* the
    # package; for plain modules it is the name minus the last segment.
    parts = source.module.split(".")
    package = parts if source.path.name == "__init__.py" else parts[:-1]
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    yield alias.name, node
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: level=1 is this package, each extra
                # level one package up.
                base = package[: len(package) - (node.level - 1)]
                if not base:
                    continue
                prefix = ".".join(base)
                target = f"{prefix}.{node.module}" if node.module else prefix
            else:
                target = node.module or ""
            if target == "repro" or target.startswith("repro."):
                yield target, node


class LayeringChecker(Checker):
    name = "layering"
    rules = (
        Rule("LY401", Severity.ERROR, "import violates the layer DAG"),
        Rule("LY402", Severity.ERROR, "repro.cli imported from outside the cli package"),
    )

    def check_module(self, source: ModuleSource) -> Iterator[Finding]:
        own_layer = _layer_of(source.module)
        facade = source.module == "repro"
        for target, node in _imported_repro_modules(source):
            target_layer = _layer_of(target)
            if target_layer == "cli" and own_layer != "cli":
                yield self.finding(
                    "LY402",
                    source,
                    node,
                    f"{source.module} imports {target}; the CLI is the "
                    "outermost shell and must not be imported as a library",
                )
                continue
            if facade:
                continue  # repro/__init__ is the public facade.
            if own_layer is None or target_layer is None or target_layer == own_layer:
                continue
            allowed = ALLOWED_IMPORTS.get(own_layer)
            if allowed is not None and target_layer not in allowed:
                yield self.finding(
                    "LY401",
                    source,
                    node,
                    f"layer '{own_layer}' must not import layer "
                    f"'{target_layer}' ({source.module} -> {target}); see "
                    "the DAG in repro.devtools.checkers.layering",
                )
