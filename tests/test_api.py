"""The package's public names."""

import altfrob


def test_every_exported_name_resolves():
    missing = [name for name in altfrob.__all__ if not hasattr(altfrob, name)]
    assert not missing
    assert len(set(altfrob.__all__)) == len(altfrob.__all__)


def test_alternant_layer_stays_exported():
    for name in ("schur_poly", "alternant", "vandermonde"):
        assert name in altfrob.__all__
        assert callable(getattr(altfrob, name))


# src/ definitions that nothing else in src/ names, each kept for one reason
ORACLES = {
    "lr_count": "independent route: Littlewood-Richardson numbers by lattice fillings",
    "schur_poly": "independent route: s_lambda from tableau weights, times the Vandermonde",
    "vandermonde": "independent route: the alternant a_delta that schur_poly multiplies",
    "complement_partition": "independent route: the dual partition the wedge metric pairs",
    "quotient_ring_products": "independent route: Q[q][y]/(y^(n+1) - q) by reduction",
    "trivial_deformation_problem": "independent route: period data with a closed-form extension",
    "expand_trivial_in_log": "independent route: that closed form, the target of hm_extend",
    "qlaurent": "independent route: a q-Laurent polynomial from pairs, with no arithmetic",
    "compress_var": "independent route: lambda^(n+1) -> q, trivial deformation vs small family",
    "rename_vars": "independent route: the variable rename of the same comparison",
    "first_witness": "public Report API: the first failing check as one line",
    "coeff": "public accessor: a Series coefficient, as acceptance criterion 5 reads it",
    "entry": "public accessor: a pairing (criterion 9) or structure-constant entry",
    "from_json": "public codec: QLRTable documents",
    "family_to_json": "public codec: family documents, the reference dumps_family writes",
    "indices_from_partition": "public codec: a partition's wedge indices",
    "potential_to_json": "public codec: potential documents",
    "problem_to_json": "bench input: the deform workload writes its problem files with it",
    "tensor": "paper construction: the external tensor product of two families",
    "trivial_deformation": "paper construction: a point spread over the lambda-line",
}


def test_no_unreferenced_definitions():
    """Every function, method and class in src/altfrob is named elsewhere in src/.

    A function or class counts as used when its name appears as an
    identifier, an attribute or an imported name in src/ outside its own
    definition; a method only when it appears as an attribute (``.name``),
    so a local variable of the same name is not a use.  The package's
    re-exports in altfrob/__init__.py are not uses, and dunder methods are
    called by the interpreter.  The only exceptions are the ORACLES, and
    each of those must still be defined in src/ and named in tests/.
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

    def attributes_in(node):
        return (sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))

    init = root / "src" / "altfrob" / "__init__.py"
    src = {path: ast.parse(path.read_text()) for path in (root / "src").rglob("*.py")}
    used = Counter(name for path, tree in src.items() if path != init
                   for name in names_in(tree))
    used_as_attribute = Counter(name for path, tree in src.items() if path != init
                                for name in attributes_in(tree))
    methods = {id(node) for tree in src.values() for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body}
    in_tests = {name for path in (root / "tests").rglob("*.py")
                for name in names_in(ast.parse(path.read_text()))}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused, kept = [], set()
    for path, tree in src.items():
        for node in ast.walk(tree):
            if not isinstance(node, defs) or node.name.startswith("__"):
                continue
            uses, within = ((used_as_attribute, attributes_in) if id(node) in methods
                            else (used, names_in))
            if uses[node.name] > sum(1 for name in within(node) if name == node.name):
                continue
            if node.name in ORACLES and node.name in in_tests:
                kept.add(node.name)
            else:
                unused.append(f"{path.relative_to(root)}:{node.lineno} {node.name}")
    assert not unused, "not named elsewhere in src/:\n" + "\n".join(unused)
    assert kept == set(ORACLES), f"stale ORACLES entries: {sorted(set(ORACLES) - kept)}"


def test_every_default_is_set_by_some_call():
    """Every defaulted parameter of a src/ function is passed by some call.

    A default that no call in src/, tests/ or bench/ overrides is a
    constant, not an option.  Calls are matched by the called name (``f(...)``
    or ``x.f(...)``), so a call to any function of that name counts; a call
    to a class counts for its ``__init__``; a call with ``*args`` counts as
    passing every positional parameter, one with ``**kwargs`` every one.
    Positions of a method, ``__init__`` and classmethods included, start
    after its first parameter; those of a staticmethod do not.
    """
    import ast
    from collections import defaultdict
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    trees = {path: ast.parse(path.read_text()) for folder in ("src", "tests", "bench")
             for path in (root / folder).rglob("*.py")}
    most_positional: dict[str, float] = defaultdict(int)
    keywords = defaultdict(set)
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            count = float("inf") if starred else len(call.args)
            most_positional[name] = max(most_positional[name], count)
            for kw in call.keywords:
                keywords[name].add(kw.arg)  # None: a **kwargs call

    def defaulted(fn, skip):
        """(name, position or None) of each parameter with a default."""
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i in range(first, len(positional)):
            yield positional[i].arg, i - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield arg.arg, None

    unset = []
    for path, tree in trees.items():
        if root / "src" not in path.parents:
            continue
        owner = {id(node): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for node in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(id(fn))
            decorators = {getattr(d, "id", None) for d in fn.decorator_list}
            skip = 0 if cls is None or "staticmethod" in decorators else 1
            name = cls.name if cls is not None and fn.name == "__init__" else fn.name
            for param, position in defaulted(fn, skip):
                if None in keywords[name] or param in keywords[name]:
                    continue
                if position is not None and most_positional[name] > position:
                    continue
                unset.append(f"{path.relative_to(root)}:{fn.lineno} {fn.name}({param}=...)")
    assert not unset, "defaults that no call sets:\n" + "\n".join(unset)
