"""Layering: each shared decision has one owner module in the package.

The semi-metric recipe (transform, trapezoid weights, distance_matrix) is
run only by ``curves``, and only ``curves`` reads or fills the transformed
rows a sample keeps (``_transformed``); every other module asks ``curves``
for distances, with the sample and the spec (``sample_distances``,
``neighbour_rows``).
The replication streams are built only by ``simulation``. The command line
gets in-sample fits from ``bootstrap.insample_fit``, not from the smoother.
Neither the command line nor the bootstrap fits a dense (m, n) query block:
they fit each query's cut rows (``query_rows``, ``nadaraya_watson_rows``),
so they name neither ``knn_radii`` nor ``nadaraya_watson_batch``.
Derivatives come from a grid's kept stencil, so no module names numpy's
``gradient``. A stream is drawn from its start, not stepped through by
its block layout, so no module names ``advance``.
A module names a thing when it imports, defines or refers to it, as a bare
name or as an attribute.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "funkreg"
MODULES = sorted(PACKAGE.glob("*.py"))

#: name -> the only module that may name it
OWNERS = {
    "transform": "curves",
    "trapezoid_weights": "curves",
    "distance_matrix": "curves",
    "_transformed": "curves",
    "Philox": "simulation",
}
#: module -> names it must not use
FORBIDDEN = {
    "cli": {"InsampleSmoother", "knn_radii", "nadaraya_watson_batch"},
    "bootstrap": {"knn_radii", "nadaraya_watson_batch"},
}
#: names no module may use
NOWHERE = {"gradient", "advance"}


def names(tree: ast.AST) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


def test_every_module_is_checked():
    assert {"curves", "simulation", "cli", "bootstrap"} <= {p.stem for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_keeps_to_its_layer(path):
    used = names(ast.parse(path.read_text(), filename=str(path)))
    module = path.stem
    trespass = sorted(
        name for name, owner in OWNERS.items() if name in used and module != owner
    )
    trespass += sorted((FORBIDDEN.get(module, set()) | NOWHERE) & used)
    assert not trespass, f"{module} names {trespass}"


def test_owners_use_what_they_own():
    # the rule must not pass because a name went out of use
    for name, owner in OWNERS.items():
        assert name in names(ast.parse((PACKAGE / f"{owner}.py").read_text()))
