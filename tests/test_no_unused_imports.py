"""Every module-level import in ``src/repro``, ``tests/``,
``benchmarks/`` and ``examples/`` is used: a name a module imports at
top level, or under ``if TYPE_CHECKING:``, appears somewhere else in
that module.  A name listed in ``__all__`` or written in a string
annotation counts as a use; a re-export says so by naming itself in
``__all__``.  ``perfbench/`` is not covered: the benchmark's code
changes only together with the benchmark.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
REPO = SRC.parent.parent
#: The directories whose modules the rule covers.
CHECKED = (SRC, REPO / "tests", REPO / "benchmarks", REPO / "examples")


def _is_type_checking(node: ast.stmt) -> bool:
    return (isinstance(node, ast.If)
            and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING")


def _imports(tree: ast.Module):
    """Yield every (line, bound name) the module body imports."""
    statements = []
    for node in tree.body:
        statements.extend(node.body if _is_type_checking(node) else [node])
    for node in statements:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _string_names(text: str) -> set:
    try:
        expression = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {node.id for node in ast.walk(expression)
            if isinstance(node, ast.Name)}


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for arg in (arguments.posonlyargs + arguments.args
                        + arguments.kwonlyargs
                        + [arguments.vararg, arguments.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set:
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _string_names(node.value)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name)
                        and target.id == "__all__"
                        for target in node.targets)):
            used |= {element.value for element in ast.walk(node.value)
                     if isinstance(element, ast.Constant)}
    return used


def _unused_imports(path: Path, root: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    return [f"{path.relative_to(root)}:{line} {name}"
            for line, name in _imports(tree) if name not in used]


def test_every_module_level_import_is_used():
    offenders = []
    for directory in CHECKED:
        modules = sorted(directory.rglob("*.py"))
        assert modules, directory
        offenders += [hit for path in modules
                      for hit in _unused_imports(path, REPO)]
    assert offenders == []
