"""Package layout rules, read from the source with ``ast`` alone.

The package depends on the standard library only, keeps each module's
private names to itself, exports exactly what ``__init__`` binds and defines
no function, public method, property or record field that it never reads
itself.
"""
import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "primeseq"
BENCH = PACKAGE.parents[1] / "bench"


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def test_imports_are_relative_or_stdlib():
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.partition(".")[0]]
            else:
                continue
            for root in roots:
                assert root in sys.stdlib_module_names, f"{name}.py imports {root}"


def test_no_module_imports_another_modules_private_name():
    for name, tree in _modules().items():
        sibling_modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    assert not alias.name.startswith("_"), f"{name}.py imports {alias.name}"
                    if node.module is None:
                        sibling_modules.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in sibling_modules):
                assert not node.attr.startswith("_"), f"{name}.py reads {node.value.id}.{node.attr}"


def test_all_lists_every_public_name_the_package_binds():
    tree = _modules()["__init__"]
    bound, exported = set(), None
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if target.id == "__all__":
                    exported = ast.literal_eval(node.value)
                else:
                    bound.add(target.id)
    assert exported is not None
    assert len(exported) == len(set(exported))
    assert set(exported) == {name for name in bound if not name.startswith("_")}


def _start_up_modules(names):
    # which of names a fresh isolated interpreter holds after importing the
    # CLI and building its parser, the start-up every CLI call pays
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
        "import primeseq.cli; primeseq.cli.build_parser(); "
        f"print(sorted(set({sorted(names)!r}) & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    return ast.literal_eval(result.stdout)


def test_cli_start_up_does_not_import_decimal():
    # only the transform lag-sum path needs decimal, and it imports it there,
    # so every CLI call's start-up stays free of it
    assert _start_up_modules({"decimal"}) == []


def test_cli_start_up_does_not_import_dataclasses_inspect_or_csv():
    # records are named tuples, since dataclasses (which pulls in inspect)
    # roughly doubled start-up; reproduce writes its CSVs as plain text, so
    # nothing in the package imports csv
    assert _start_up_modules({"dataclasses", "inspect", "csv"}) == []


def _unread_class_members(members):
    # (class, member) pairs that members(class node) names, less those read
    # as an attribute anywhere in the package
    defined, read = set(), set()
    for tree in _modules().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                defined |= {(node.name, name) for name in members(node)}
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(f"{cls}.{name}" for cls, name in defined if name not in read)


def test_every_public_method_is_read_in_the_package():
    # a method or property that only the tests reach is surface to delete
    unread = _unread_class_members(
        lambda cls: [item.name for item in cls.body
                     if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    )
    assert not unread, f"never read in the package: {unread}"


def _record_fields(cls):
    # every class in the package is a record built on namedtuple("Name", "a b c"),
    # so a class without that base would hide its fields from the check below
    calls = [base for base in cls.bases
             if isinstance(base, ast.Call) and getattr(base.func, "id", None) == "namedtuple"]
    assert len(calls) == 1, f"{cls.name} is not a namedtuple record"
    return ast.literal_eval(calls[0].args[1]).split()


def test_every_dataclass_field_is_read_in_the_package():
    # a field nothing reads is state carried for no one
    unread = _unread_class_members(_record_fields)
    assert not unread, f"never read in the package: {unread}"


def _used_names(tree):
    # names loaded or called by attribute, each under the top-level function
    # it appears in (None outside any), so a function calling itself does not
    # count as its own caller; a handler handed to argparse counts as called
    used = set()
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add((owner, node.id))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                used.add((owner, node.func.attr))
    return used


def test_every_module_level_function_has_a_caller():
    # a function only the tests call is surface to delete
    trees = list(_modules().values()) + [ast.parse(path.read_text(), str(path))
                                         for path in sorted(BENCH.glob("*.py"))]
    used = set().union(*map(_used_names, trees))
    defined = {node.name for tree in _modules().values() for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    uncalled = sorted(name for name in defined if not any(
        owner != name and used_name == name for owner, used_name in used))
    assert not uncalled, f"never called in the package or bench/: {uncalled}"
