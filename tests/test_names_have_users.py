"""Every module-level function and class in ``src/hnncert``, and every
method and property of its classes, has a user.

A name counts as used when code outside its own definition refers to it:
anywhere in ``src/``, in the acceptance gate ``tests/test_acceptance.py``,
or in ``perfbench/*.py``.  An import alone is not a use; the reference must
reach the defining module, by a name imported from it, as an attribute of
that module, or inside the module itself.  A method or property is used by
any attribute of its name, as the type of the object is not known; dunder
methods serve Python's protocols and are not checked.  ``perfbench`` binds
the modules at run time and looks names up by string, so there any
attribute or string of the name counts.  A name with no such user must be
in ``LIBRARY``, keyed ``module.name`` or ``module.Class.name``, with the
reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hnncert"
MODULES = {path.stem for path in SRC.glob("*.py")}

LIBRARY = {
    "annuli.check_ring_relations": "reference check of the ring constructions, run by the annulus tests",
    "certify.parse_report": "exported by the package as the inverse of emit_report",
    "disjointness.all_conjugates_trivial_intersection": "named API for the universal conjugate-intersection decision that essential_disjointness_power makes on free cores it builds once per power, and the oracle of the gate's tests",
    "disjointness.decode_in_image": "named API for block decoding, and a test oracle",
    "graphmap.is_legal_turn": "oracle for the turn walk of verify_train_track in tests",
    "stallings.canonical_code": "isomorphism oracle for folded graphs in tests",
    "stallings.fold": "the whole-graph fold that subgroup_graph's incremental fold is checked against",
    "stallings.membership": "named API for subgroup membership, and the oracle that checks folding keeps each generator a basepoint loop",
}

FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITION = (*FUNCTION, ast.ClassDef)


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


def methods(top):
    """The methods and properties a class defines, dunders aside."""
    if not isinstance(top, ast.ClassDef):
        return []
    return [
        m for m in top.body
        if isinstance(m, FUNCTION) and not (m.name.startswith("__") and m.name.endswith("__"))
    ]


def scoped(top):
    """(owner, node) per node under the top-level statement ``top``; owner
    is () outside any definition, (name,) in a top-level definition and
    (class, method) in a method."""
    owner = (top.name,) if isinstance(top, DEFINITION) else ()
    inner = {node: (top.name, m.name) for m in methods(top) for node in ast.walk(m)}
    return ((inner.get(node, owner), node) for node in ast.walk(top))


def uses(path, loose):
    """(owner, module or None, name) per reference in ``path``; owner is
    as :func:`scoped` gives it, module the hnncert module the reference
    reaches (None: any, or ``path``'s own), and "." for an attribute of any
    other object, which only a method or property can be."""
    tree = parse(path)
    modules, names = imports(tree)
    out = set()
    for top in tree.body:
        for owner, node in scoped(top):
            if isinstance(node, ast.Name) and node.id in names:
                out.add((owner, *names[node.id]))
            elif isinstance(node, ast.Name) and path.parent == SRC:
                out.add((owner, path.stem, node.id))
            elif isinstance(node, ast.Attribute):
                base = node.value.id if isinstance(node.value, ast.Name) else None
                if base in modules:
                    out.add((owner, modules[base], node.attr))
                else:
                    out.add((owner, None if loose else ".", node.attr))
            elif loose and isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add((owner, None, node.value))
    return out


def usage():
    """Every top-level definition of ``src/hnncert`` as ``module.name``,
    and every method and property as ``module.Class.name``, mapped to
    whether something other than itself refers to it."""
    sources = sorted(SRC.glob("*.py"))
    acceptance = ROOT / "tests" / "test_acceptance.py"
    users = [(p, uses(p, False)) for p in [*sources, acceptance]]
    users += [(p, uses(p, True)) for p in sorted((ROOT / "perfbench").glob("*.py"))]

    def used(path, owner, modules):
        return any(
            name == owner[-1]
            and module in modules
            and not (user == path and refs_owner[: len(owner)] == owner)
            for user, refs in users
            for refs_owner, module, name in refs
        )

    out = {}
    for path in sources:
        for top in parse(path).body:
            if isinstance(top, DEFINITION):
                out[f"{path.stem}.{top.name}"] = used(path, (top.name,), (None, path.stem))
            for m in methods(top):
                out[f"{path.stem}.{top.name}.{m.name}"] = used(path, (top.name, m.name), (None, "."))
    return out


def test_every_src_name_has_a_user():
    unused = sorted(key for key, used in usage().items() if not used)
    assert [key for key in unused if key not in LIBRARY] == []


def test_library_names_exist_and_have_no_user():
    used = usage()
    assert {key: used.get(key) for key in LIBRARY} == {key: False for key in LIBRARY}


def test_methods_and_properties_are_checked_and_dunders_are_not():
    used = usage()
    assert used["pullback.ProductPairs.index"] is True  # read by the acceptance gate
    assert used["pullback.Subdivided.point_keys"] is True  # a cached property
    assert "pullback.ProductPairs.__len__" not in used
