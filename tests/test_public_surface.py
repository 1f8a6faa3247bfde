"""Every public member of src/chernflat/ has a caller in src/, or a pinned reason to stay.

A public member is a top-level function or class of a module, or a method of
such a class, whose name has no leading underscore.  A caller is a use of its
name, as a name or an attribute, anywhere in src/chernflat/ outside the
member's own body.  __init__.py is not read, and neither __all__ entries nor
docstrings are names, so re-exports and prose are not callers.  Reference
code that only tests call lives in tests/oracles.py.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "chernflat"

KEEP = {
    "classify.random_frame_scramble": "perfbench/spans.py traces it, and Tracer.install raises without it",
    "forms.InvariantForm.wedge": "the exterior product, an independent reading the form tests check exterior_d with",
    "lie.LieAlgebra.basis_ad": "the dense ad_{e_i} matrices, an independent reading behind the inner-direction oracle",
    "lie.LieAlgebra.structure_constant": "the dense reading of the bracket table behind the tests' row oracles",
}


def _members(tree: ast.Module, module: str):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{module}.{node.name}.{sub.name}", sub


def uncalled_members() -> set:
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py") if p.name != "__init__.py"}
    uses = [
        (n.id if isinstance(n, ast.Name) else n.attr, n)
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute))
    ]
    out = set()
    for module, tree in trees.items():
        for qualname, node in _members(tree, module):
            body = set(map(id, ast.walk(node)))
            if not any(name == node.name and id(n) not in body for name, n in uses):
                out.add(qualname)
    return out


def test_every_public_member_has_a_caller_or_a_pinned_reason():
    uncalled = uncalled_members()
    assert uncalled - KEEP.keys() == set(), "public members with no caller in src/; move them or pin them"
    assert KEEP.keys() - uncalled == set(), "pinned members that now have a caller; unpin them"
