"""Code that only tests call lives in tests/, not in the package.

Walks the syntax trees of ``src/glyphsdf/*.py`` and fails, naming them, on
public module-level functions and classes that no other top-level
statement of the package refers to (by name, attribute or import), on
dataclass fields that no code of the package reads, on defaulted
parameters that no call in the package passes, and on imports inside a
function.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "glyphsdf"

# dataclass fields kept although the package never reads them, with the reason
UNREAD_FIELDS_KEPT = {
    # bench/workloads.py builds a SampleSet by position: without these two
    # fields its arguments would land in the wrong fields
    "sampling.SampleSet.kinds",
    "sampling.SampleSet.rng_seed",
}

# defaulted parameters kept although no call under src/ passes them, with the reason
DEFAULTS_NOT_PASSED = {
    # the console script and __main__ call main() bare; the tests and the
    # benchmark pass argv
    "cli.main(argv)",
}


def _names_used(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
    return names


def _modules(src):
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(Path(src).glob("*.py"))]


def unreferenced_public_names(src=SRC):
    defined, uses = [], []
    for stem, tree in _modules(src):
        for node in tree.body:
            uses.append((node, _names_used(node)))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((f"{stem}.{node.name}", node))
    return [
        qualified
        for qualified, node in defined
        if not any(qualified.rpartition(".")[2] in names for other, names in uses if other is not node)
    ]


def _name(node):
    """``x`` of a name ``x`` or an attribute ``m.x``."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _is_dataclass(node):
    return isinstance(node, ast.ClassDef) and any(
        _name(dec.func if isinstance(dec, ast.Call) else dec) == "dataclass"
        for dec in node.decorator_list
    )


def _attribute_reads(node, classes, building=frozenset()):
    """(attribute name, classes being built around it) for every attribute
    loaded under ``node``; ``building`` holds the dataclasses whose
    constructor arguments enclose the node."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, building
    if isinstance(node, ast.Call) and _name(node.func) in classes:
        yield from _attribute_reads(node.func, classes, building)
        inner = building | {_name(node.func)}
        for arg in [*node.args, *(k.value for k in node.keywords)]:
            yield from _attribute_reads(arg, classes, inner)
        return
    for child in ast.iter_child_nodes(node):
        yield from _attribute_reads(child, classes, building)


def unread_dataclass_fields(src=SRC):
    """Fields of the package's dataclasses whose name no code of the package
    loads as an attribute.  Building an instance is no read, and neither is
    copying a field into the constructor of its own class; writing a field
    into a file or a document is one."""
    modules = _modules(src)
    fields = [
        (f"{stem}.{cls.name}.{stmt.target.id}", cls.name, stmt.target.id)
        for stem, tree in modules
        for cls in tree.body if _is_dataclass(cls)
        for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
    ]
    classes = {cls for _, cls, _ in fields}
    reads = {}
    for _, tree in modules:
        for attr, building in _attribute_reads(tree, classes):
            reads.setdefault(attr, []).append(building)
    return sorted(
        qualified for qualified, cls, name in fields
        if not any(cls not in building for building in reads.get(name, []))
    )


def test_every_public_name_is_used_by_the_package():
    unused = unreferenced_public_names()
    assert not unused, f"public names that no code under src/ refers to: {unused}"


def test_every_dataclass_field_is_read_by_the_package():
    unread = set(unread_dataclass_fields())
    assert not unread - UNREAD_FIELDS_KEPT, (
        f"dataclass fields that no code under src/ reads: {sorted(unread - UNREAD_FIELDS_KEPT)}"
    )
    # an entry whose field has found a reader, or is gone, leaves the list
    assert UNREAD_FIELDS_KEPT <= unread, sorted(UNREAD_FIELDS_KEPT - unread)


def _defaulted_parameters(func, bound):
    """(name, index among the call's positional arguments or None) of each
    parameter of ``func`` that has a default; ``bound`` when a call passes
    the first parameter implicitly, as a method call passes self."""
    positional = [*func.args.posonlyargs, *func.args.args]
    first = len(positional) - len(func.args.defaults)
    yield from ((a.arg, i - bound) for i, a in enumerate(positional) if i >= first)
    yield from ((a.arg, None) for a, default in zip(func.args.kwonlyargs, func.args.kw_defaults)
                if default is not None)


def _passes(call, name, index):
    """Whether ``call`` passes the parameter ``name`` at positional ``index``."""
    if any(k.arg in (name, None) for k in call.keywords):  # None: a **mapping
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def defaults_never_passed(src=SRC):
    """``module.function(parameter)`` for each defaulted parameter of a
    function of the package that no call of the package, to a function of
    that name, passes by position or keyword."""
    modules = _modules(src)
    calls = {}
    for _, tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_name(node.func), []).append(node)
    missing = []
    for stem, tree in modules:
        for owner in ast.walk(tree):
            for func in ast.iter_child_nodes(owner):
                if not isinstance(func, ast.FunctionDef):
                    continue
                bound = isinstance(owner, ast.ClassDef) and not any(
                    _name(dec) == "staticmethod" for dec in func.decorator_list)
                prefix = f"{owner.name}." if isinstance(owner, ast.ClassDef) else ""
                missing += [
                    f"{stem}.{prefix}{func.name}({name})"
                    for name, index in _defaulted_parameters(func, bound)
                    if not any(_passes(c, name, index) for c in calls.get(func.name, []))
                ]
    return sorted(missing)


def test_every_defaulted_parameter_is_passed_by_the_package():
    unpassed = set(defaults_never_passed())
    assert not unpassed - DEFAULTS_NOT_PASSED, (
        f"defaulted parameters that no call under src/ passes: "
        f"{sorted(unpassed - DEFAULTS_NOT_PASSED)}"
    )
    # an entry whose parameter has found a caller, or is gone, leaves the list
    assert DEFAULTS_NOT_PASSED <= unpassed, sorted(DEFAULTS_NOT_PASSED - unpassed)


def _function_imports(node, prefix=""):
    """Name of each function under ``node``, as ``outer.inner`` or
    ``Class.method``, whose body holds an import statement, nested
    functions' bodies included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}{child.name}"
            if not isinstance(child, ast.ClassDef) and any(
                    isinstance(sub, (ast.Import, ast.ImportFrom)) for sub in ast.walk(child)):
                yield name
            yield from _function_imports(child, f"{name}.")


def imports_inside_functions(src=SRC):
    """``module.function`` for each function of the package that imports
    something when it runs, rather than where its module loads."""
    return sorted(f"{stem}.{name}" for stem, tree in _modules(src)
                  for name in _function_imports(tree))


def test_every_import_is_at_module_level():
    inside = imports_inside_functions()
    assert not inside, f"functions under src/ that import: {inside}"
