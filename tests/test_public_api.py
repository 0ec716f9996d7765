"""Every public name under ``src/gshlab`` has a reader.

A public module-level function or class, or a public method, must be loaded
somewhere in ``src/``, be loaded by the code of ``bench/*.py``,
``tests/test_acceptance.py`` or ``tests/conftest.py`` (which decide the stated
claims), or stand in ``ORACLES`` with the reason it is kept.  A name that a
reader mentions only in a comment, a docstring or a string is not read.  A
name that only its own unit tests call is not part of the program and is
deleted with its tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Public names kept for what an outside caller checks with them.
ORACLES = {
    "evaluate_witness": "recomputes a reported scan value from its serialized witness alone",
    "scan": "the standalone scan that the shared-batch battery must equal",
    "verify_implication": "recomputes a kept implication record from its function alone",
    "sqrt_disk_boundary": "the true boundary of sqrt(1 + D), against which its region is tested",
    "SchwarzSample.boundary_max": "checks that a sampled witness has |w| <= 1 on the unit circle",
}


def _readers() -> list[str]:
    paths = [*sorted((ROOT / "bench").glob("*.py")),
             ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "conftest.py"]
    return [p.read_text() for p in paths]


def public_definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of each public top-level function or class and public method."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                out.extend((f"{node.name}.{item.name}", item.name) for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and not item.name.startswith("_"))
    return out


def loaded_names(tree: ast.Module) -> set[str]:
    """Names read as a variable or an attribute, or imported by name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unread_public_names(sources: list[str], readers: list[str]) -> list[str]:
    """Qualified public names of ``sources`` that neither a source nor a reader loads."""
    trees = [ast.parse(text) for text in sources]
    loaded = set().union(*(loaded_names(ast.parse(text)) for text in [*sources, *readers]))
    return sorted(qualified for tree in trees for qualified, name in public_definitions(tree)
                  if name not in loaded)


def _sources() -> list[str]:
    return [p.read_text() for p in sorted((ROOT / "src" / "gshlab").glob("*.py"))]


def test_every_public_name_has_a_reader_or_is_an_oracle():
    # equality: an oracle that gains a reader, or loses its definition, leaves the set
    assert unread_public_names(_sources(), _readers()) == sorted(ORACLES)


def test_an_unread_public_function_is_reported():
    extra = ("def unread_helper(x):\n    return x\n\n\n"
             "class Kept:\n    def unread_method(self):\n        pass\n")
    unread = unread_public_names([*_sources(), extra], [*_readers(), "Kept\n"])
    assert set(unread) - set(ORACLES) == {"unread_helper", "Kept.unread_method"}


def test_a_name_only_in_a_readers_comment_is_reported():
    extra = "def mentioned_helper(x):\n    return x\n"
    reader = ('"""Calls mentioned_helper on its input."""\n'
              "# mentioned_helper(1)\n"
              'NAME = "mentioned_helper"\n')
    unread = unread_public_names([*_sources(), extra], [*_readers(), reader])
    assert set(unread) - set(ORACLES) == {"mentioned_helper"}
