"""Import layering of the engine package, read from the source with `ast`."""

import ast
from pathlib import Path

import xmem

PACKAGE = Path(xmem.__file__).parent


def _imported_modules(tree: ast.Module) -> set[str]:
    """Absolute names of the modules a module imports, `xmem.` included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "xmem" if node.level else ""
            module = ".".join(part for part in (base, node.module) if part)
            names.add(module)
            # `from . import oracle` and `from xmem import oracle`
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_only_the_oracle_module_is_the_oracle():
    offenders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "oracle.py"
        and "xmem.oracle" in _imported_modules(ast.parse(path.read_text(), str(path)))
    ]
    assert offenders == [], f"engine modules import xmem.oracle: {offenders}"
