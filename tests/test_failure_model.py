"""The package's failure model, read from its source.

The package defines one exception class, SchwarzRunError, and catches it
by that name where a run keeps its history and where the CLI writes it.
A solve raises builtin errors: a ValueError for an operator that cannot
be built, a RuntimeError for a spent Picard budget.  The engine turns any
failed solve into a SchwarzRunError with one labelling rule, so it names
no class of the package where it catches a solve's error.  Every other
failure is a builtin error, a ValueError for a setup defect, whose
message is all the CLI prints.
"""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "schwarz1d"


def caught_names(node) -> set[str]:
    """Class names an ``except`` clause names: a Name, a dotted name's last
    part, or a tuple of them."""
    if isinstance(node, ast.Tuple):
        return set().union(*map(caught_names, node.elts))
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def is_builtin_exception(name: str) -> bool:
    value = getattr(builtins, name, None)
    return isinstance(value, type) and issubclass(value, BaseException)


def test_every_exception_class_is_caught_by_its_own_name():
    nodes = [node for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))]
    bases = {node.name: caught_names(ast.Tuple(node.bases)) for node in nodes
             if isinstance(node, ast.ClassDef)}
    # a class is an exception class when a base is a builtin exception or
    # another exception class of the package
    exceptions: set[str] = set()
    while True:
        found = {name for name, names in bases.items()
                 if any(is_builtin_exception(b) or b in exceptions for b in names)}
        if found == exceptions:
            break
        exceptions = found
    caught = set().union(*(caught_names(node.type) for node in nodes
                           if isinstance(node, ast.ExceptHandler)))
    assert exceptions == {"SchwarzRunError"}
    assert sorted(exceptions - caught) == []


def test_the_engine_catches_only_builtin_errors():
    tree = ast.parse((SRC / "schwarz.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    for name in ("plan", "solve_reference", "sweep"):
        caught = set().union(*(caught_names(node.type) for node in ast.walk(functions[name])
                               if isinstance(node, ast.ExceptHandler)))
        assert caught and all(map(is_builtin_exception, caught)), (name, caught)
