"""Every public name and every private helper in src/supmimo has a caller in the package."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "supmimo"

# public names kept without a caller in the package, one reason each
ALLOWED = {
    "cli.parse_csv": "read by the benchmark's CSV round trip",
    "hybrid.brute_force_partition": "the greedy partitioner's test oracle",
}


def public_definitions(tree: ast.Module):
    """The public top-level functions and classes and public methods, as (qualname, node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def private_definitions(tree: ast.Module):
    """The private top-level functions and classes, as (name, node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
            yield node.name, node


def name_reads(tree: ast.AST) -> Counter:
    """How often each name is read under tree as a bare Name."""
    return Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))


def attribute_reads(tree: ast.AST) -> Counter:
    """How often each name is read under tree as an attribute (obj.name)."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def package_trees() -> dict:
    """The parsed modules of the package, __init__.py aside, by module name."""
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def unreferenced(definitions=public_definitions) -> list:
    """Defined names that no code of the package reads, __init__.py aside.

    A name read only inside its own definition has no caller.  A method or
    property is reached through its object, so only attribute reads count
    for it: a local variable of the same name is no caller.
    """
    trees = package_trees()

    def reads(tree, member):
        found = attribute_reads(tree)
        return found if member else found + name_reads(tree)

    read = {member: sum((reads(tree, member) for tree in trees.values()), Counter())
            for member in (False, True)}
    return [f"{module}.{qualname}" for module, tree in trees.items()
            for qualname, node in definitions(tree)
            if read["." in qualname][node.name] == reads(node, "." in qualname)[node.name]]


def test_every_public_name_has_a_caller_in_the_package():
    # an allowed name that gains a caller, or is deleted, leaves the list too
    assert sorted(unreferenced()) == sorted(ALLOWED)


def test_every_private_helper_has_a_caller_in_the_package():
    # a helper read only by tests is dead code too
    assert unreferenced(private_definitions) == []


def is_record(node: ast.ClassDef) -> bool:
    """A dataclass, under any spelling of the decorator, or a NamedTuple."""
    def name(expr):
        expr = expr.func if isinstance(expr, ast.Call) else expr
        return expr.attr if isinstance(expr, ast.Attribute) else getattr(expr, "id", None)

    return (any(name(d) == "dataclass" for d in node.decorator_list)
            or any(name(b) == "NamedTuple" for b in node.bases))


def parameters(node: ast.FunctionDef) -> list:
    """Every parameter name of a function, self and cls aside."""
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    return [n for n in names if n not in ("self", "cls")]


def settable_values() -> int:
    """Public function and method parameters plus dataclass and NamedTuple fields."""
    total = 0
    for tree in package_trees().values():
        for _, node in public_definitions(tree):
            if isinstance(node, ast.FunctionDef):
                total += len(parameters(node))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and is_record(node):
                total += sum(isinstance(item, ast.AnnAssign) for item in node.body)
    return total


# the count when a knob was last added or removed; a new parameter or field
# raises the count, and this bound with it, on purpose and with a reason
SETTABLE_VALUES = 213


def test_settable_values_do_not_grow():
    assert settable_values() <= SETTABLE_VALUES
