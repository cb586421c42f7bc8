"""Import layering of the engine package, read from the source with `ast`."""

import ast
import sys
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


def test_runtime_imports_are_stdlib_and_numpy_only():
    allowed = set(sys.stdlib_module_names) | {"numpy", "xmem"}
    offenders = sorted(
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _imported_modules(ast.parse(path.read_text(), str(path)))
        if name.split(".")[0] not in allowed
    )
    assert offenders == [], f"engine modules import undeclared dependencies: {offenders}"


def test_only_the_read_module_imports_threads():
    # reads split their row blocks over threads inside `affinity`; no other
    # module needs to know that
    offenders = sorted(
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "affinity.py"
        for name in _imported_modules(ast.parse(path.read_text(), str(path)))
        if name.split(".")[0] in {"threading", "concurrent"}
    )
    assert offenders == [], f"engine modules other than affinity.py import threads: {offenders}"


BLOCKS = {"KeyBlock", "ValueBlock", "ShrinkageVector", "SelectionBlock"}


def _called_names(tree: ast.Module):
    """The bare or attribute name of everything a module calls."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            yield func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_only_ingestion_builds_blocks():
    # inputs are checked once, where they enter the engine: by the public
    # constructors and range mappings, and by the pipeline's ingestion.
    # Everything derived from checked data stays a plain array
    offenders = sorted(
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in {"core_types.py", "pipeline.py"}
        for name in _called_names(ast.parse(path.read_text(), str(path)))
        if name in BLOCKS
    )
    assert offenders == [], f"engine modules other than the ingestion build blocks: {offenders}"


def _console_names(tree: ast.Module):
    """Calls to `print`, and the names `sys.exit` and `sys.stderr`, however
    they are reached."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
            yield "print"
        elif (
            isinstance(node, ast.Attribute)
            and getattr(node.value, "id", None) == "sys"
            and node.attr in {"exit", "stderr"}
        ):
            yield f"sys.{node.attr}"
    yield from sorted(_imported_modules(tree) & {"sys.exit", "sys.stderr"})


def test_only_the_cli_writes_to_the_console_or_exits():
    # failures travel as exceptions to the CLI's one handler, which alone
    # turns them into an `error:` line and an exit code
    offenders = sorted(
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "cli.py"
        for name in _console_names(ast.parse(path.read_text(), str(path)))
    )
    assert offenders == [], f"engine modules other than cli.py use the console: {offenders}"


def _unused_parameters(tree: ast.Module):
    """`function: parameter` for each parameter a function or lambda never
    names in its body, `self`, `cls` and names starting with `_` aside."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a]
            body = node.body if isinstance(node.body, list) else [node.body]
            named = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            for param in params:
                if param not in named | {"self", "cls"} and not param.startswith("_"):
                    yield f"{getattr(node, 'name', 'lambda')}: {param}"


def test_engine_functions_use_every_parameter():
    # a function takes only what it reads, so a caller never builds an input
    # that nothing looks at
    offenders = sorted(
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _unused_parameters(ast.parse(path.read_text(), str(path)))
    )
    assert offenders == [], f"engine functions with unused parameters: {offenders}"
