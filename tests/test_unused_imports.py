"""Every name a constalg module or a test module imports is used in that module.

constalg's `__init__.py` is left out: it imports names only to re-export them.
No constalg module imports inside a function: each import runs once, at the top.
Every top-level function and class of constalg, and every method and property
of its classes but the dunders, has a caller outside its own body; a method or
property is called only through an attribute or a string, not a bare name.
"""

import ast
from collections import Counter
from pathlib import Path

import constalg

SOURCE = Path(constalg.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"

# perfbench's TracerTest checks that normal_words binds this name.
ALLOWED = {("normal_words", "leading_term")}


def unused_imports(path: Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {(path.stem, name) for name in imported - used}


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
    tests = sorted(TESTS.glob("*.py"))
    assert len(modules) > 5 and len(tests) > 5
    unused = set().union(*(unused_imports(path) for path in modules + tests))
    assert unused == ALLOWED


def test_no_constalg_module_imports_inside_a_function():
    late = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        late.add((path.stem, func.name, node.lineno))
    assert late == set()


def references(node) -> tuple:
    """(bare names, attribute names and string constants) used under node.

    The strings count because perfbench's tracer and `monkeypatch.setattr`
    name their targets so; an import alone is not a use.
    """
    bare, named = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            bare[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            named[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            named[sub.value] += 1
    return bare, named


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree) -> list:
    """(node, is_method) for a module's top-level functions and classes and their non-dunder methods."""
    found = []
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            found.append((node, False))
        if isinstance(node, ast.ClassDef):
            found += [
                (sub, True)
                for sub in node.body
                if isinstance(sub, FUNCTIONS)
                and not (sub.name.startswith("__") and sub.name.endswith("__"))
            ]
    return found


def unused_definitions(trees: dict, checked: list) -> set:
    """(module, name) of each definition in `checked` that no tree uses outside its body.

    Any reference uses a top-level function or class.  A method or property
    is used only through an attribute or a string: a bare name is taken
    for a variable or a top-level function.
    """
    bare, named = Counter(), Counter()
    for tree in trees.values():
        tree_bare, tree_named = references(tree)
        bare += tree_bare
        named += tree_named
    unused = set()
    for path in checked:
        for node, is_method in definitions(trees[path]):
            own_bare, own_named = references(node)
            uses = named[node.name] - own_named[node.name]
            if not is_method:
                uses += bare[node.name] - own_bare[node.name]
            if not uses:
                unused.add((path.stem, node.name))
    return unused


def test_every_top_level_definition_is_used_outside_its_body():
    paths = [*SOURCE.glob("*.py"), *TESTS.glob("*.py"), *PERFBENCH.rglob("*.py")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    assert unused_definitions(trees, sorted(SOURCE.glob("*.py"))) == set()


def test_a_local_variable_does_not_use_a_method_of_its_name():
    source = """
class Word:
    def xexp(self):
        return 1

    def used(self):
        return 2


def xexp_reader(word):
    xexp = word.used()
    return xexp


def helper():
    return 3


def caller():
    return helper()
"""
    path = Path("synthetic.py")
    assert unused_definitions({path: ast.parse(source)}, [path]) == {
        ("synthetic", "xexp"),
        ("synthetic", "Word"),
        ("synthetic", "xexp_reader"),
        ("synthetic", "caller"),
    }
