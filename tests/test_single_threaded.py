"""``src/repro`` is single-threaded by construction: no module imports
``threading``, ``_thread`` or ``ThreadPoolExecutor``, so no repro
object is ever reachable from two threads and nothing needs a lock.
"""

import ast
from pathlib import Path

import repro

FORBIDDEN_MODULES = {"threading", "_thread"}
FORBIDDEN_NAMES = {"ThreadPoolExecutor"}


def _thread_imports(path: Path, root: Path) -> list:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(module.split(".")[0] in FORBIDDEN_MODULES
               for module in modules) or FORBIDDEN_NAMES & set(names):
            found.append(f"{path.relative_to(root)}:{node.lineno}")
    return found


def test_no_module_imports_threading():
    root = Path(repro.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert modules
    offenders = [hit for path in modules
                 for hit in _thread_imports(path, root)]
    assert offenders == []
