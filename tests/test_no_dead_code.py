"""Code with no caller is deleted: every public top-level function and
class of the package is used by the package itself, or is listed here
with the reason it is kept."""

import ast
from pathlib import Path

import sublex

PACKAGE = Path(sublex.__file__).parent

# used outside the package only, each with the reason it stays
KEPT = {
    "brute_force_pronunciation": "exact oracle of the joint alignment tests",
    "gradient_check": "finite-difference oracle of the network tests",
    "path_loglik": "reference scorer of a state path in the search tests",
    "scaled_loglik": "reference of PosteriorScorer's frame scores",
    "best_unit_mapping": "unit-label accuracy of the benchmark",
    "read_ground_truth": "reads the ground truth that `sublex synth` writes",
    "run_pipeline": "the library entry point",
}


def unused_public_names(paths):
    """Public top-level functions and classes of the modules at ``paths``
    that none of them uses as a name or an attribute; mentions in
    docstrings and imports do not count."""
    defined, used = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(
            node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined - used


def test_every_public_name_has_a_caller_or_a_reason():
    paths = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(paths) >= 10
    assert unused_public_names(paths) == set(KEPT)


def test_guard_sees_names_attributes_and_not_docstrings(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""see helper and Tool"""\n'
        "from b import imported\n\n"
        "def helper():\n    return 1\n\n"
        "def caller():\n    return b.by_attr() + imported()\n\n"
        "class Tool:\n    pass\n\n"
        "def _private():\n    pass\n")
    (tmp_path / "b.py").write_text(
        "def by_attr():\n    return caller()\n\n"
        "def imported():\n    pass\n")
    assert unused_public_names(sorted(tmp_path.glob("*.py"))) == {
        "helper", "Tool"}
