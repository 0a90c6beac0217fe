"""Every module-level function and class in ``src/hnncert`` has a user.

A name counts as used when code outside its own definition refers to it:
anywhere in ``src/``, in the acceptance gate ``tests/test_acceptance.py``,
or in ``perfbench/*.py``.  An import alone is not a use; the reference must
reach the defining module, by a name imported from it, as an attribute of
that module, or inside the module itself.  ``perfbench`` binds the modules
at run time and looks names up by string, so there any attribute or string
of the name counts.  A name with no such user must be in ``LIBRARY``, with
the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hnncert"
MODULES = {path.stem for path in SRC.glob("*.py")}

LIBRARY = {
    "annuli.check_ring_relations": "reference check of the ring constructions, run by the annulus tests",
    "certify.parse_report": "exported by the package as the inverse of emit_report",
    "disjointness.decode_in_image": "named API for block decoding, and a test oracle",
    "graphmap.is_legal_turn": "oracle for the turn walk of verify_train_track in tests",
    "stallings.canonical_code": "isomorphism oracle for folded graphs in tests",
    "stallings.fold": "the whole-graph fold that subgroup_graph's incremental fold is checked against",
}

DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def imports(tree):
    """Local names bound to hnncert modules, and local name -> (module or
    None for the package, imported name) for names imported from them."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                stem = alias.name.rpartition(".")[2]
                if alias.name.startswith("hnncert.") and alias.asname:
                    modules[alias.asname] = stem
        elif isinstance(node, ast.ImportFrom):
            # the module imported from, "" for the package itself
            if node.level:
                source = node.module or ""
            elif node.module == "hnncert" or (node.module or "").startswith("hnncert."):
                source = node.module.removeprefix("hnncert").lstrip(".")
            else:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if not source and alias.name in MODULES:
                    modules[local] = alias.name
                else:
                    names[local] = (source or None, alias.name)
    return modules, names


def uses(path, loose):
    """(owner, module or None, name) per reference in ``path``; owner is
    the top-level definition around it (or None), module the hnncert
    module it reaches (None: any, or ``path``'s own)."""
    tree = parse(path)
    modules, names = imports(tree)
    out = set()
    for top in tree.body:
        owner = top.name if isinstance(top, DEFINITION) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in names:
                out.add((owner, *names[node.id]))
            elif isinstance(node, ast.Name) and path.parent == SRC:
                out.add((owner, path.stem, node.id))
            elif isinstance(node, ast.Attribute):
                base = node.value.id if isinstance(node.value, ast.Name) else None
                if base in modules:
                    out.add((owner, modules[base], node.attr))
                elif loose:
                    out.add((owner, None, node.attr))
            elif loose and isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add((owner, None, node.value))
    return out


def usage():
    """Every top-level definition of ``src/hnncert`` as ``module.name``,
    mapped to whether something other than itself refers to it."""
    sources = sorted(SRC.glob("*.py"))
    acceptance = ROOT / "tests" / "test_acceptance.py"
    users = [(p, uses(p, False)) for p in [*sources, acceptance]]
    users += [(p, uses(p, True)) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    out = {}
    for path in sources:
        for top in parse(path).body:
            if isinstance(top, DEFINITION):
                out[f"{path.stem}.{top.name}"] = any(
                    name == top.name
                    and module in (None, path.stem)
                    and not (user == path and owner == top.name)
                    for user, refs in users
                    for owner, module, name in refs
                )
    return out


def test_every_src_name_has_a_user():
    unused = sorted(key for key, used in usage().items() if not used)
    assert [key for key in unused if key not in LIBRARY] == []


def test_library_names_exist_and_have_no_user():
    used = usage()
    assert {key: used.get(key) for key in LIBRARY} == {key: False for key in LIBRARY}
