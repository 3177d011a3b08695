"""The package's public API: what code outside the tests calls."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# code that may call the public API, apart from the tests
_CALLER_DIRS = ("src/qsdc", "tools", "perfbench")


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the string constants that are module, class or function docstrings."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, owners)
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def _names_used(path: Path) -> set[str]:
    """Identifiers a file's code refers to: names, attributes, imports,
    and the dotted parts of its string constants other than docstrings
    (a use such as getattr(module, "name"))."""
    tree = ast.parse(path.read_text(), filename=str(path))
    skip = _docstrings(tree)
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            used.update(node.value.split("."))
    return used


def _names_used_outside_the_tests() -> set[str]:
    used: set[str] = set()
    for folder in _CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            used |= _names_used(path)
    return used


# public functions with no caller yet: the planned per-session summary line will call both
_UNCALLED_PUBLIC_FUNCTIONS = {"config_io.render_config", "wiretap_code.code_description"}


def test_every_public_function_has_a_caller_outside_the_tests():
    # the public API is what the package itself, the tools and the
    # benchmark call; what only tests use lives with the tests
    used = _names_used_outside_the_tests()
    unused = set()
    for path in sorted((ROOT / "src/qsdc").glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if node.name not in used:
                    unused.add(f"{path.stem}.{node.name}")
    # a named exception that gains a caller leaves the list
    assert unused == _UNCALLED_PUBLIC_FUNCTIONS, f"public but called only by tests: {unused}"
