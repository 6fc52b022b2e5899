"""Guards on the package surface and on how the library checks itself."""

import ast
from pathlib import Path

import contactsurg

SRC = Path(contactsurg.__file__).parent


def _modules():
    return [(path, ast.parse(path.read_text(), str(path))) for path in sorted(SRC.glob("*.py"))]


def test_public_names_resolve_and_stay_few():
    assert len(contactsurg.__all__) <= 29
    assert len(set(contactsurg.__all__)) == len(contactsurg.__all__)
    for name in contactsurg.__all__:
        assert getattr(contactsurg, name) is not None


def test_library_does_not_import_the_oracles():
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            assert not any("oracles" in name.split(".") for name in names), path.name


def _names(node, name):
    """Whether ``node`` defines, imports or refers to ``name``."""
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.alias) and name in (node.name, node.asname)
            or isinstance(node, ast.FunctionDef) and node.name == name
            or isinstance(node, ast.Constant) and node.value == name)


def test_elimination_kernel_has_one_caller():
    # adjugate_block checks the det and signature of every
    # linalg._path_kernel pass against the characteristic polynomial, so
    # the kernel is named only at its definition and inside
    # adjugate_block: no signature goes unchecked
    seen = {}
    for path, tree in _modules():
        door = set()
        if path.name == "linalg.py":
            top = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
            door = {id(top["_path_kernel"]), *map(id, ast.walk(top["adjugate_block"]))}
        for node in ast.walk(tree):
            if _names(node, "_path_kernel"):
                seen[f"{path.name}:{node.lineno}"] = id(node) in door
    assert [where for where, inside in seen.items() if not inside] == []
    assert len(seen) == 2  # the definition and the call in adjugate_block


def _bareiss_steps(tree):
    """The lines of ``tree`` that divide a difference of two products
    exactly, (p x - f y) // prev: the Bareiss update."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Sub)
            and all(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
                    for side in (node.left.left, node.left.right))]


def test_bareiss_lives_only_in_the_oracles():
    # det, signature and adjugate blocks come from the path kernel's
    # continuants; fraction-free elimination is the tests' oracle only
    for path, tree in _modules():
        names = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not names & {"_eliminate", "eliminate", "bareiss"}, path.name
        assert _bareiss_steps(tree) == [], path.name
    oracles = SRC.parents[1] / "tests" / "oracles.py"
    tree = ast.parse(oracles.read_text(), str(oracles))
    names = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert {"eliminate", "bareiss"} <= names and len(_bareiss_steps(tree)) >= 2


def test_characteristic_polynomial_has_one_route():
    # char_poly seeds its continuant by the determinant lemma on a clique
    # head; Berkowitz's algorithm, which takes any head, and the Descartes
    # signature read from it are the tests' oracles, and the list-building
    # conversion is the oracle listed_convert
    gone = ("_berkowitz", "berkowitz", "descartes_signature", "convert")
    for path, tree in _modules():
        for name in gone:
            lines = [node.lineno for node in ast.walk(tree) if _names(node, name)]
            assert lines == [], f"{path.name}: {name} on lines {lines}"
    assert not set(gone) & set(contactsurg.__all__)
    oracles = SRC.parents[1] / "tests" / "oracles.py"
    tree = ast.parse(oracles.read_text(), str(oracles))
    names = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert {"berkowitz", "char_poly_berkowitz", "descartes_signature", "listed_convert"} <= names


def test_no_assert_statements():
    # python -O strips assert, so a check written as one never runs there
    for path, tree in _modules():
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name}: assert on lines {lines}"


def test_no_floats():
    # exact arithmetic only: no float literal, no float() call and no true
    # division anywhere in the library
    for path, tree in _modules():
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, float)
                 or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == "float"
                 or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]
        assert lines == [], f"{path.name}: float or true division on lines {lines}"


def test_no_dense_view_and_dense_rows_only_for_mismatch_provenance():
    # forms are sparse rows and reports write them as they are: no module
    # reads a dense .Q, and linalg.dense is called only where a mismatch
    # records its matrix
    for path, tree in _modules():
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "Q"]
        assert lines == [], f"{path.name}: .Q on lines {lines}"
    callers = {f"{path.name}:{func.name}" for path, tree in _modules()
               for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func) if isinstance(node, ast.Call)
               and _names(node.func, "dense")}
    assert callers == {"closedforms.py:_mismatch"}