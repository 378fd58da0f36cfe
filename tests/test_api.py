"""The package's public names."""

import altfrob


def test_every_exported_name_resolves():
    missing = [name for name in altfrob.__all__ if not hasattr(altfrob, name)]
    assert not missing
    assert len(set(altfrob.__all__)) == len(altfrob.__all__)


def test_alternant_layer_stays_exported():
    for name in ("schur_poly", "bialternant_reduce", "alternant", "vandermonde"):
        assert name in altfrob.__all__
        assert callable(getattr(altfrob, name))


def test_no_unreferenced_definitions():
    """Every function, method and class in src/altfrob is named somewhere else.

    A name counts as used when it appears as an identifier, an attribute or
    an imported name in src/ or tests/ outside its own definition.  The
    package's re-exports in altfrob/__init__.py are not uses.  Dunder
    methods are called by the interpreter and are exempt.
    """
    import ast
    from collections import Counter
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]

    def names_in(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.alias):
                yield sub.name.split(".")[-1]

    trees = {path: ast.parse(path.read_text())
             for folder in ("src", "tests") for path in (root / folder).rglob("*.py")}
    init = root / "src" / "altfrob" / "__init__.py"
    used = Counter(name for path, tree in trees.items() if path != init
                   for name in names_in(tree))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = []
    for path, tree in trees.items():
        if "altfrob" not in path.parts:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, defs) or node.name.startswith("__"):
                continue
            own = sum(1 for name in names_in(node) if name == node.name)
            if used[node.name] == own:
                unused.append(f"{path.relative_to(root)}:{node.lineno} {node.name}")
    assert not unused, "defined but never referenced:\n" + "\n".join(unused)
