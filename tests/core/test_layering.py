"""The statistics core stands on its own: nothing in it imports ``repro.obs``.

Importing ``repro.core`` loads the whole package, so ``sys.modules``
cannot tell; the check reads every core module's import statements,
function-level imports included.
"""

import ast
from pathlib import Path

CORE = Path(__file__).resolve().parents[2] / "src" / "repro" / "core"


def imported_modules(path: Path) -> set[str]:
    """Absolute names of every module ``path`` imports."""
    package = ("repro",) + path.relative_to(CORE.parent).parent.parts
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            module = ".".join(base + ((node.module,) if node.module else ()))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_core_never_imports_obs():
    offenders = {
        str(path.relative_to(CORE)): sorted(
            name for name in imported_modules(path)
            if name == "repro.obs" or name.startswith("repro.obs.")
        )
        for path in sorted(CORE.rglob("*.py"))
    }
    assert {path: names for path, names in offenders.items() if names} == {}
