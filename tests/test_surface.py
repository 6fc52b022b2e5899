"""Guards on the package surface and on how the library checks itself."""

import ast
from pathlib import Path

import contactsurg

SRC = Path(contactsurg.__file__).parent
ROOT = SRC.parents[1]


def _modules():
    return [(path, ast.parse(path.read_text(), str(path))) for path in sorted(SRC.glob("*.py"))]


def _library_example():
    """The code of the README's "Library example" block."""
    text = (ROOT / "README.md").read_text().split("## Library example\n", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def _loaded(tree):
    """The names ``tree`` reads, as a Name or an Attribute: not where it
    defines or imports them."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_public_names_resolve_and_stay_few():
    assert len(contactsurg.__all__) <= 16
    assert len(set(contactsurg.__all__)) == len(contactsurg.__all__)
    for name in contactsurg.__all__:
        assert getattr(contactsurg, name) is not None


def test_every_public_name_is_reached():
    # a public name is one a program reaches: the library itself (not
    # its __init__), the benchmark's workloads or the README example;
    # a name only the tests reach belongs in tests/oracles.py
    reached = set().union(*(_loaded(tree) for path, tree in _modules() if path.name != "__init__.py"))
    workloads = ROOT / "perfbench" / "workloads.py"
    reached |= _loaded(ast.parse(workloads.read_text(), str(workloads)))
    reached |= _loaded(ast.parse(_library_example()))
    assert sorted(set(contactsurg.__all__) - reached) == []


def test_library_example_runs_as_its_comments_say():
    namespace, values = {}, []
    for stmt in ast.parse(_library_example()).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert values == [{1, -3}, {0, 2, 4, 6}, 3,
                      ["-3", "-3/4", "-3/7", "-3/10", "3/8", "3/5", "3/2"],
                      {"closed forms": 2686, "d3 regressions": 24, "obstruction scan": 144}]


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


def test_verify_has_one_walk():
    # regressions.verify is the one walk over tb behind verify: the
    # per-tb stage helpers are named only at their definitions and inside
    # it (and _scan_tb inside scan_cells, its own walk), and the command
    # line reaches no private name of another module but the readers its
    # reports are written from: a form's path and its rows, and the
    # denominators of a cosmetic slope set
    allowed = {"_families": {"closedforms.py:_families", "regressions.py:verify"},
               "_check_cells": {"regressions.py:_check_cells", "regressions.py:verify"},
               "_scan_tb": {"cosmetic.py:_scan_tb", "cosmetic.py:scan_cells",
                            "regressions.py:verify"}}
    seen = {name: set() for name in allowed}
    for path, tree in _modules():
        inside = {}
        for func in tree.body:
            if isinstance(func, ast.FunctionDef):
                inside.update(dict.fromkeys(map(id, ast.walk(func)), f"{path.name}:{func.name}"))
        for node in ast.walk(tree):
            for name in allowed:
                if _names(node, name):
                    seen[name].add(inside.get(id(node), f"{path.name}:{node.lineno}"))
    assert seen == allowed
    tree = ast.parse((SRC / "cli.py").read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
               for alias in node.names}

    def private(name):  # __version__ is the package's, not a private name
        return name.startswith("_") and not name.endswith("__")

    readers = {("linalg", "_Path"), ("linalg", "_band"), ("slopes", "_cs_set_dens")}
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1
             and any(private(alias.name) and (node.module, alias.name) not in readers
                     for alias in node.names)
             or isinstance(node, ast.Attribute) and private(node.attr)
             and isinstance(node.value, ast.Name) and node.value.id in modules]
    assert "regressions" in modules and lines == []


def test_one_place_reduces_and_checks_a_d3_value():
    # invariants._d3_pass reduces and checks every d3 value the library
    # makes: d3_records is its one-shift case and scan reads each plan once
    # through it for every rotation number; the per-knot loop is the oracle
    raised = {f"{path.name}:{func.name}" for path, tree in _modules()
              for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
              for node in ast.walk(func) if isinstance(node, ast.Constant)
              and isinstance(node.value, str) and "inconsistent d3 data" in node.value}
    assert raised == {"invariants.py:_d3_pass"}
    assert sum(path.read_text().count("inconsistent d3 data") for path, _ in _modules()) == 1


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
    assert {"eliminate"} <= names and len(_bareiss_steps(tree)) >= 1


def test_characteristic_polynomial_has_one_route():
    # the signature check reads chi of the run-reduced form, seeded by the
    # determinant lemma on a clique head; Berkowitz's chi of the whole
    # form, which takes any shape, is the tests' one oracle for it, and
    # the list-building conversion is the oracle listed_convert
    gone = ("_berkowitz", "berkowitz", "descartes_signature", "convert", "char_poly",
            "_path_extend", "_run", "_run_polys", "_RUN_MIN")
    for path, tree in _modules():
        for name in gone:
            lines = [node.lineno for node in ast.walk(tree) if _names(node, name)]
            assert lines == [], f"{path.name}: {name} on lines {lines}"
    assert not set(gone) & set(contactsurg.__all__)
    oracles = SRC.parents[1] / "tests" / "oracles.py"
    tree = ast.parse(oracles.read_text(), str(oracles))
    names = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert {"berkowitz", "char_poly", "listed_convert"} <= names


def test_one_matrix_type_in_the_library():
    # every matrix src/ takes is a linalg._Path: the symmetry check of
    # sparse rows, their reading into a path and the lemma matrices as
    # sparse rows are the tests' oracles
    gone = ("check_symmetric", "_read", "chain_matrix", "chain_matrix_primed",
            "bordered_block_matrix")
    for path, tree in _modules():
        for name in gone:
            lines = [node.lineno for node in ast.walk(tree) if _names(node, name)]
            assert lines == [], f"{path.name}: {name} on lines {lines}"
    oracles = SRC.parents[1] / "tests" / "oracles.py"
    tree = ast.parse(oracles.read_text(), str(oracles))
    names = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert {"check_symmetric", "read", "chain_matrix", "chain_matrix_primed",
            "bordered_block_matrix"} <= names


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


def test_component_roles_are_named_only_by_the_d3_report():
    # a presentation is its integer shape, one record from the conversion
    # to the report: its rows are push-offs or chain unknots only in the
    # component dicts that cmd_d3 writes, so no other module names a role
    where = {f"{path.name}:{node.lineno}" for path, tree in _modules() for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in ("pushoff", "chain")}
    assert where and {place.split(":")[0] for place in where} == {"cli.py"}


def test_one_reader_of_a_form_s_rows():
    # a form is its linalg._Path from the conversion to the report: no
    # sparse-row view of it is built, cached or wrapped, and only
    # linalg._band reads its rows, for the writer, dense and _check_basis
    for path, tree in _modules():
        for name in ("_rows", "_SparseRows", "cached_property"):
            lines = [node.lineno for node in ast.walk(tree) if _names(node, name)]
            assert lines == [], f"{path.name}: {name} on lines {lines}"
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "rows"
                 or isinstance(node, ast.FunctionDef) and node.name == "rows"]
        assert lines == [], f"{path.name}: a rows attribute on lines {lines}"
    callers = {f"{path.name}:{func.name}" for path, tree in _modules()
               for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func) if isinstance(node, ast.Call)
               and _names(node.func, "_band")}
    assert callers == {"cli.py:_row", "linalg.py:dense", "linalg.py:_check_basis"}
