"""Nothing in ``src/repro`` exists only for its tests: every module-level
function and class is named somewhere besides its own definition and
its module's ``__all__`` — elsewhere in its own module, in another
module (a package ``__init__`` re-export does not count), or in
``examples/``, ``benchmarks/`` or ``perfbench/``.  The few test
oracles and read-only observers kept anyway are listed in ``EXEMPT``,
each with its reason.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
REPO = SRC.parent.parent
CALLER_DIRS = ("examples", "benchmarks", "perfbench")

#: Module-level names kept although only tests call them.
EXEMPT = {
    "serialize_zone": "the oracle for the zone parser's round trip",
    "build_questionnaire": "the oracle for the survey walk",
    "load_delivery_ledger": "reads a delivery state dir's ledger back",
    "reset_chain_cache_stats": "the PKIX chain cache's reset_stats accessor",
}

_WORD = re.compile(r"\w+")


def _words(text: str) -> Counter:
    return Counter(_WORD.findall(text))


def _span(lines, node) -> str:
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", ())])
    return "\n".join(lines[first - 1:node.end_lineno])


def _is_all(node: ast.stmt) -> bool:
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AugAssign)
               else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets)


def _test_only_definitions() -> dict:
    """Every module-level def/class named nowhere but in its own
    definition and its module's ``__all__``: name -> "module:line"."""
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    texts = {path: path.read_text(encoding="utf-8") for path in modules}
    elsewhere = [set(_words(path.read_text(encoding="utf-8")))
                 for directory in CALLER_DIRS
                 for path in sorted((REPO / directory).rglob("*.py"))]
    module_words = {path: set(_words(text)) for path, text in texts.items()}
    found = {}
    for path, text in texts.items():
        tree = ast.parse(text)
        lines = text.splitlines()
        all_words = Counter()
        for node in tree.body:
            if _is_all(node):
                all_words += _words(_span(lines, node))
        everywhere = _words(text) - all_words
        others = [words for other, words in module_words.items()
                  if other != path] + elsewhere
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            own = (everywhere - _words(_span(lines, node)))[name]
            if own or any(name in words for words in others):
                continue
            found[name] = f"{path.relative_to(SRC)}:{node.lineno}"
    return found


def test_no_module_level_code_only_tests_call():
    found = _test_only_definitions()
    offenders = sorted(f"{where} {name}" for name, where in found.items()
                       if name not in EXEMPT)
    assert offenders == []


def test_every_exemption_is_still_test_only():
    found = _test_only_definitions()
    assert sorted(name for name in EXEMPT if name not in found) == []
