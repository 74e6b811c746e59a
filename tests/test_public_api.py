"""Every public name and every private helper in src/supmimo has a caller in the package."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "supmimo"

# public names kept without a caller in the package, one reason each
ALLOWED = {
    "cli.parse_csv": "read by the benchmark's CSV round trip",
    "hybrid.brute_force_partition": "the greedy partitioner's test oracle",
    "analytics.sinr_sp_asymptotic": "large-M form, waits for the finite-M closed forms",
    "analytics.kappa": "waits for the finite-M closed forms",
    "analytics.hybrid_rates": "waits for the finite-M closed forms",
    "analytics.cell_sum_rate": "waits for the finite-M closed forms",
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


def references(tree: ast.AST) -> Counter:
    """How often each name is read under tree: as a Name, or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def unreferenced(definitions=public_definitions) -> list:
    """Defined names that no code of the package reads, __init__.py aside.

    A name read only inside its own definition has no caller.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    read = sum((references(tree) for tree in trees.values()), Counter())
    return [f"{module}.{qualname}" for module, tree in trees.items()
            for qualname, node in definitions(tree)
            if read[node.name] == references(node)[node.name]]


def test_every_public_name_has_a_caller_in_the_package():
    # an allowed name that gains a caller, or is deleted, leaves the list too
    assert sorted(unreferenced()) == sorted(ALLOWED)


def test_every_private_helper_has_a_caller_in_the_package():
    # a helper read only by tests is dead code too
    assert unreferenced(private_definitions) == []
