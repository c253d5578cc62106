#!/usr/bin/env python
"""Layering lint: fail CI when a module imports against the layer order.

The architecture (docs/architecture.md) is a DAG:

    graph (view/store/partition) → walks → core → pipeline → cli
                                     ↑________tasks/community/viz

with ``repro.context`` (the ``ExecutionContext``) below the engines,
on top of ``repro.obs`` / ``repro.parallel`` / ``repro.resilience``.

``repro.graph.store`` / ``repro.graph.partition`` may depend on the
graph core and on ``repro.resilience`` (integrity records), but never on
``repro.walks`` or ``repro.pipeline`` — the out-of-core substrate must
stay consumable by every engine above it.

Most rules check *module-level* imports only (``import x`` /
``from x import y`` at the top of the file, outside
``if TYPE_CHECKING:`` blocks); function-local imports are exempt there.
Rules marked ``any level`` also check every import inside functions and
classes, so no lazy import can hide the back-edge.

1. ``repro.pipeline`` must not import ``repro.cli`` — the pipeline is a
   library layer; the CLI sits on top of it.
2. ``repro.walks``, ``repro.parallel`` and ``repro.context`` must not
   import ``repro.pipeline`` at any level — the engines and their
   runtime context sit *below* the runtime that orchestrates them.
   ``repro.core`` keeps the module-level rule only: the ``V2V`` facade
   in ``core/model.py`` runs a ``Pipeline`` from inside ``fit``.
3. ``repro.context`` must not import the engines (``repro.walks``,
   ``repro.core``) at any level.
4. Nothing under ``repro`` imports ``repro.cli`` at module level.

Run from the repo root: ``python scripts/check_import_cycles.py``.
Exits 1 with one line per violation.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Rules whose importing layer is listed here apply to imports at any
# level; all others to module-level imports only.
ANY_LEVEL = {
    ("repro.walks", "repro.pipeline"),
    ("repro.parallel", "repro.pipeline"),
    ("repro.context", "repro.pipeline"),
    ("repro.context", "repro.walks"),
    ("repro.context", "repro.core"),
}

# (package prefix of the importing module, forbidden import prefix, why)
RULES = [
    (
        "repro.pipeline",
        "repro.cli",
        "the pipeline layer must not depend on the CLI",
    ),
    (
        "repro.core",
        "repro.pipeline",
        "engines sit below the pipeline runtime (ExecutionContext lives in repro.context)",
    ),
    (
        "repro.walks",
        "repro.pipeline",
        "engines sit below the pipeline runtime (ExecutionContext lives in repro.context)",
    ),
    (
        "repro.parallel",
        "repro.pipeline",
        "the pool sits below the pipeline runtime",
    ),
    (
        "repro.context",
        "repro.pipeline",
        "the execution context sits below the pipeline runtime",
    ),
    (
        "repro.context",
        "repro.walks",
        "the execution context sits below the walk engines",
    ),
    (
        "repro.context",
        "repro.core",
        "the execution context sits below the trainer",
    ),
    (
        "repro.graph.store",
        "repro.walks",
        "the graph store is substrate; walk engines consume it, never the reverse",
    ),
    (
        "repro.graph.store",
        "repro.pipeline",
        "the graph store is substrate; the pipeline runtime sits far above it",
    ),
    (
        "repro.graph.partition",
        "repro.walks",
        "partitioning is substrate; walk engines consume it, never the reverse",
    ),
    (
        "repro.graph.partition",
        "repro.pipeline",
        "partitioning is substrate; the pipeline runtime sits far above it",
    ),
    (
        "repro.graph",
        "repro.community",
        "graph is the bottom layer; community algorithms build on it "
        "(partition's label-propagation hook is a function-local import)",
    ),
    (
        "repro",
        "repro.cli",
        "repro.cli is the top of the stack; no library module may import it",
    ),
]


def module_name(path: Path) -> str:
    rel = path.relative_to(SRC).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_type_checking_guard(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def module_level_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(lineno, imported module) pairs for top-level imports, skipping
    ``if TYPE_CHECKING:`` bodies (annotations don't create runtime deps)."""
    found: list[tuple[int, str]] = []
    for node in tree.body:
        if isinstance(node, ast.If) and _is_type_checking_guard(node):
            continue
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.append((node.lineno, node.module))
    return found


def all_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(lineno, imported module) pairs for every absolute import in the
    file, function-local ones included (``TYPE_CHECKING`` bodies still
    skipped)."""
    skipped = {
        id(child)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and _is_type_checking_guard(node)
        for stmt in node.body
        for child in ast.walk(stmt)
    }
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.append((node.lineno, node.module))
    return found


def _in_layer(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


# Entry points whose whole job is to invoke the CLI.
EXEMPT = {"repro.__main__"}


def check() -> list[str]:
    violations: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        mod = module_name(path)
        if mod in EXEMPT:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        top_level = set(module_level_imports(tree))
        for lineno, imported in all_imports(tree):
            for layer, forbidden, why in RULES:
                if not (_in_layer(mod, layer) and _in_layer(imported, forbidden)):
                    continue
                if (layer, forbidden) in ANY_LEVEL:
                    where = "" if (lineno, imported) in top_level else " (local)"
                elif (lineno, imported) in top_level:
                    where = ""
                else:
                    continue
                violations.append(
                    f"{path.relative_to(SRC.parent)}:{lineno}: "
                    f"{mod} imports {imported}{where} ({why})"
                )
                break
    return violations


def main() -> int:
    violations = check()
    for line in violations:
        print(line, file=sys.stderr)
    if violations:
        print(f"{len(violations)} layering violation(s)", file=sys.stderr)
        return 1
    print("import layering OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
