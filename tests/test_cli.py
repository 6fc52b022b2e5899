import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactsurg import cli, linalg
from contactsurg.cli import json_text, main
from contactsurg.surgery import LegendrianData
from oracles import cs_set_by_search, listed_convert


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestD3Command:
    def test_worked_value(self, capsys):
        code, out, _ = run(capsys, "d3", "--tb", "-1", "--rot", "0", "--slope", "-1/2")
        assert code == 0
        assert "d3 spectrum: 1" in out

    def test_contact_frame_flag(self, capsys):
        code, out, _ = run(capsys, "d3", "--tb", "-2", "--rot", "1", "--coeff", "1")
        assert code == 0
        assert "d3 spectrum: 1" in out

    def test_excluded_slope_exits_2(self, capsys):
        code, _, err = run(capsys, "d3", "--tb", "-1", "--rot", "0", "--slope", "0")
        assert code == 2
        assert "non-torsion" in err

    def test_invalid_rot_exits_2(self, capsys):
        code, _, err = run(capsys, "d3", "--tb", "-1", "--rot", "1", "--slope", "-1/2")
        assert code == 2

    def test_malformed_slope_exits_2(self, capsys):
        for flag, text in (("--slope", "1/2/3"), ("--slope", "abc"),
                           ("--coeff", "1/"), ("--coeff", "/2")):
            code, out, err = run(capsys, "d3", "--tb", "-1", "--rot", "0", flag, text)
            assert code == 2 and out == ""
            assert err == f"error: malformed slope {text!r}: expected p/q or p\n"

    @pytest.mark.parametrize("argv, message", [
        *((["d3", "--tb", "-1", "--rot", "0", "--slope", text],
          "infinite slope has no rational value")
          for text in ("inf", "oo", "infinity", "1/0", "-3/0")),
        (["unknot", "--tb", "-1", "--rot", "0", "--coeff", "inf"],
         "infinite slope has no rational value"),
        (["d3", "--tb", "-1", "--rot", "0", "--slope", "0/0"], "0/0 is not a slope"),
    ])
    def test_unrepresentable_slope_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_remainder_error_names_the_inputs(self, capsys):
        code, out, err = run(capsys, "d3", "--tb", "1", "--rot", "0", "--slope", "5")
        assert code == 2 and out == ""
        assert err == ("error: tb=1, contact coefficient 4 (smooth slope 5): after 1 "
                       "push-off the remainder coefficient -4/3 needs smooth slope < -1, "
                       "got -1/3\n")

    def test_both_flags_rejected(self, capsys):
        code, _, _ = run(capsys, "d3", "--tb", "-1", "--rot", "0",
                         "--slope", "-1/2", "--coeff", "1/2")
        assert code == 2

    def test_failed_internal_check_exits_1(self, capsys, monkeypatch):
        # the signature methods disagree: one error line, no traceback
        from contactsurg import linalg

        monkeypatch.setattr(linalg, "_descartes", lambda coeffs: len(coeffs))
        code, out, err = run(capsys, "d3", "--tb", "-1", "--rot", "0", "--slope", "-1/3")
        assert code == 1 and out == ""
        assert err.startswith("error: internal check failed: signature methods disagree")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestD3Report:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(-6, 0), st.integers(0, 6), st.integers(-30, 30), st.integers(1, 12))
    @example(-2, 1, 50, 99)  # two push-offs, then a stabilized one at 50 rotation numbers
    @example(-1, 0, 1, 3)  # three push-offs and no remainder
    @example(-1, 0, 2, 7)  # framings 0, a head of four, a chain
    @example(-3, 0, -12, 5)  # a stabilized knot, then runs of -2 and of -3
    def test_components_are_the_listed_presentations(self, tb, j, p, q):
        # the report writes each presentation's components straight from the
        # one presentation: one entry per presentation of the listed
        # conversion, in its order, each its one dict per component
        rot = tb + 1 + 2 * j
        try:
            listed = listed_convert(LegendrianData(tb, rot), Fraction(p, q))
        except ValueError:
            return
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["d3", "--tb", str(tb), "--rot", str(rot), "--coeff", f"{p}/{q}",
                         "--json"])
        if code == 2:  # a singular form
            return
        results = json.loads(out.getvalue())["results"]["presentations"]
        assert code == 0
        assert [r["presentation"] for r in results] == [one.to_json() for one in listed]


class TestD3Digest:
    """sha256 of the stdout of ``d3`` reports, pinned from the code that
    built a D3Result per rotation vector.  The 1/5 pair guards the two
    orders of the spectrum: sorted as strings in JSON, numerically in
    text."""

    @pytest.mark.parametrize("argv, digest", [
        ("--tb -1 --rot 0 --slope -1/200 --json",
         "707fc86f48e8dda9cf80520d408644888cf5e4aa1a034b5a641f449464b68ab3"),
        ("--tb -1 --rot 0 --slope -1/200",
         "1b70246f85a634383ea909ece98bc7d523dfdbd4c9148c5f1e56361429728323"),
        ("--tb -2 --rot 1 --slope -1/40 --json",
         "7ccd5302f6707b3853a21d3e5c299661f35f7ecac2d1b682bd7619c8a9798378"),
        ("--tb -2 --rot 1 --slope -1/40",
         "c1e7a0d720ca54aee079c9a4b702eab34a44fe91860a2d6cceb57e01eef7b3c5"),
        ("--tb -3 --rot 2 --slope 2 --json",
         "33539585ec370224ff872fc7362f5ad2f7dbd2fa5a00faf5065b4a790b9d08fe"),
        ("--tb -3 --rot 2 --slope 2",
         "8172ba29d1cd55272de1ed575dcdd801724c74822b36f9335dd651117c17b40d"),
        ("--tb -1 --rot 0 --coeff 1/40 --json",
         "99f502c83a7eb1d04568c98ddf82697b1a36618e63b3d6a467b36552f8c19c91"),
        ("--tb -4 --rot 1 --slope 1/5 --json",
         "04350a785e95e1a35e8e8e87f8cefe7d9627f2ed3059215278bdeead90549355"),
        ("--tb -4 --rot 1 --slope 1/5",
         "4de8ef43910a1765071ccc33884b1523a2820500d9f313d82cd045fda647bacf"),
        ("--tb -2 --rot -1 --slope -1/134 --json",
         "7b5eeba2fc045314fa609f8d1c1bc5a99ad7187b010e55ee1a62e28004be6fd6"),
        ("--tb -1 --rot 0 --slope -1/400 --json",
         "a1ad1472b987ef08e0f98f419c8c8c0acb170d7a98af17c12e095bca0ca3f6ce"),
        ("--tb -1 --rot 0 --coeff 1/3 --json",  # a zero-diagonal clique
         "d4cc370c08002546a9303e00eb93aa6db74464ce9e364a12cedcf01c2a1e7ed5"),
        ("--tb 0 --rot 1 --coeff 1/3 --json",  # unlinked push-offs: all tail
         "b361508e3b43d65fc63284c9f8a4c79c6a56123ea4eaee835130519849d6c36f"),
        ("--tb -3 --rot 0 --coeff 5/7 --json",  # a 3-clique head, a 1-row tail
         "1d7fe5a2a02909a586f73d622b1fa79ea4d23c9e38285ee5eddb9e744ff29177"),
        ("--tb -1 --rot 0 --slope -1000 --json",  # 999 presentations share one Q
         "738f920892ec733fc2d8928af6eb56d7e38a0af5fe4772214674f4c3610c8c26"),
        ("--tb -1 --rot 0 --slope -2584/987 --json",  # [-3] x 8: 256 vectors, odometer carries
         "851ed237705a6b14ec1b483b33805909e7dc51b490b0d24a2ff777f4aac0ea11"),
        ("--tb -3 --rot 2 --slope -4221/1277 --json",  # radices 1,1,4,2,5,1,3: 120 vectors
         "6b56cd288f241b8b6914d96e025c6f62afc0720b506caf836128a67eee8aa625"),
        ("--tb -3 --rot 2 --slope -4221/1277",
         "3bf30b96d32bcf5e7a39da515de4269dcd8fb7e364dc5866d7f400cb9453ae3d"),
        ("--tb -2 --rot -1 --slope -47/6 --json",  # 6 presentations of 5 vectors each
         "be7d4cb87e264539e2d30011fc0d213370b366b30cc928d6994c4315ade7ae10"),
        ("--tb -2 --rot -1 --slope -47/6",
         "9744c4017152a996e394742c4e7e67e5afced3a09d1f518daceb5cdd3f807390"),
        ("--tb -2 --rot 1 --coeff 50/99 --json",  # 50 presentations, stabilized push-off third
         "1e3b75f5338cfafd12d8109c0780302dbdbde97fa06b88d7c02cf26c17e3035b"),
        ("--tb -2 --rot 1 --coeff 50/99",
         "0432f54ea26d73b7ac2bea1e66b62af937ade87c415f002ff1f5055396de45b3"),
        ("--tb -1 --rot 0 --slope -10000",  # 9,999 presentations, one framings line
         "671f9a73e03ed3c435b3a86d9097c50748a6c2759e46a2332e81e2eea3ea1c97"),
    ])
    def test_report_bytes_are_unchanged(self, capsys, argv, digest):
        code, out, err = run(capsys, "d3", *argv.split())
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerifyDigest:
    """sha256 of the stdout of ``verify`` reports, pinned from the sweep
    that computed each c1^2 with its own adjugate quadratic at shift 0."""

    @pytest.mark.parametrize("argv, digest", [
        ("", "f78884c4bbb393d40635ccdebef5971f4a8711a605da8a03541dd98dcc085525"),
        ("--json", "dae1053cb467a1a6bc6753055a5e51fe3f4b9ca43927ef00e87663910ca99719"),
        ("--k-max 4 --n-max 3",
         "4b016982a00a9587cb381f20fbb2bc9e1330bf68d787da3901dbae6031c91e20"),
        ("--k-max 4 --n-max 3 --json",
         "1644df1f57b50f9c74d6302e04e80ae299e2edbcf7c48786a0663736b13f7b70"),
    ])
    def test_report_bytes_are_unchanged(self, capsys, argv, digest):
        code, out, err = run(capsys, "verify", *argv.split())
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_reader_closing_the_pipe_early_is_not_an_error():
    # about 200 KB of text, more than a pipe holds: the writer meets the
    # closed pipe while printing
    import contactsurg

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(contactsurg.__file__))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "contactsurg.cli", "d3", "--tb", "-1", "--rot", "0",
         "--slope", "-1/200"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"presentation: ")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 0 and err == "", err


class TestCsSetCommand:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "cs-set", "3", "1", "--bound", "10", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["results"]["members"] == [
            "-3", "-3/4", "-3/7", "-3/10", "3/8", "3/5", "3/2"]

    def test_six_members(self, capsys):
        code, out, _ = run(capsys, "cs-set", "2", "1", "--bound", "5", "--json")
        assert code == 0
        assert len(json.loads(out)["results"]["members"]) == 6

    def test_invalid_canonical_form(self, capsys):
        code, _, err = run(capsys, "cs-set", "3", "4", "--bound", "10")
        assert code == 2

    def test_negative_p_named_once(self, capsys):
        code, out, err = run(capsys, "cs-set", "-3", "1")
        assert code == 2 and out == ""
        assert err == ("error: p=-3, q=1: -p/q is not a canonical surgery coefficient "
                       "(needs 0 < q <= p, gcd(p, q) = 1)\n")

    def test_json_round_trip_is_byte_identical(self, capsys):
        code, out, _ = run(capsys, "cs-set", "7", "2", "--bound", "30", "--json")
        assert code == 0
        parsed = json.loads(out)
        assert json.dumps(parsed, sort_keys=True, indent=2) == out.strip()

    @pytest.mark.parametrize("p, q", [(1, 1), (2, 1), (7, 2), (7, 3), (12, 5), (40, 11), (40, 39)])
    def test_text_and_json_are_the_searched_members(self, capsys, p, q):
        for bound in (1, p, 2 * p + 1, 200):
            members = [str(s) for s in cs_set_by_search(p, q, bound)]
            inputs = {"p": p, "q": q, "bound": bound}
            want = json.dumps(cli.envelope("cs-set", inputs, {"members": members}),
                              sort_keys=True, indent=2) + "\n"
            args = ("cs-set", str(p), str(q), "--bound", str(bound))
            assert run(capsys, *args) == (0, ", ".join(members) + "\n", "")
            assert run(capsys, *args, "--json") == (0, want, "")


@pytest.mark.parametrize("argv", [
    "d3 --tb -1 --rot 0 --slope -1/200 --json",  # a 200 x 200 matrix
    "unknot --tb -2 --rot 1 --coeff 3/2 --json",
    "verify --k-max 3 --n-max 1 --json",
])
def test_json_round_trip_at_scale_is_byte_identical(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


_TEXT = st.one_of(st.text(max_size=6),
                  st.sampled_from(['"', "\\", "\n\t\x00\x1f", "\u00e9", "\U0001f600", ""]))


def _sparse_row(n, entries):
    row = [0] * n
    for i, x in entries:
        if i < n:
            row[i] = x
    return row


# rows of 0-60 ints, mostly zeros, with leading, trailing and all-zero
# runs: the writer passes only their nonzeros through str
_SPARSE_ROWS = st.builds(
    _sparse_row, st.integers(0, 60),
    st.lists(st.tuples(st.integers(0, 59),
                       st.one_of(st.integers(-3, 3), st.sampled_from([10**40, -10**40]))),
             max_size=20))


def _runs(pairs):
    """One list holding each object its count of times in a row."""
    return [x for x, count in pairs for _ in range(count)]


_JSON_TREES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-10**40, 10**40),
              _TEXT, st.lists(st.one_of(st.integers(), st.booleans())), _SPARSE_ROWS),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(_TEXT, children, max_size=4),
                               st.lists(st.tuples(children, st.integers(1, 4)),
                                        max_size=3).map(_runs)),
    max_leaves=25)


@st.composite
def _shared_subtrees(draw, trees=_JSON_TREES):
    """A list holding one drawn subtree at several positions and depths,
    beside other trees; sometimes twice over, reversed, under two keys."""
    shared = draw(trees)
    items = []
    for _ in range(draw(st.integers(2, 6))):
        if draw(st.booleans()):
            items.append(draw(trees))
            continue
        x = shared
        for wrap in draw(st.lists(st.sampled_from("ldt"), max_size=3)):
            x = [x, 0] if wrap == "l" else {"k": x} if wrap == "d" else (x,)
        items.append(x)
    return {"a": items, "b": items[::-1]} if draw(st.booleans()) else items


# one list of lists placed twice at one depth and once at another: a
# shared list's text is copied only at the indent it was written at
_SHARED = [[1, 2], [None, "x", [0, 3]], [], {"k": [True]}]


@st.composite
def _paths(draw):
    """A ``linalg._Path`` of n <= 9 rows: a path, or a clique head of h >= 3
    rows with one link c, 0 included, and a path after it; zero diagonals
    and links, big and negative entries among them, and n = 0 and 1."""
    entries = st.one_of(st.integers(-3, 3), st.sampled_from([10**40, -10**40, -2**63]))
    n = draw(st.integers(0, 9))
    h = draw(st.sampled_from([0, *range(3, n + 1)]))
    c = draw(entries) if h else 0
    links = max(n - 1, 0) - max(h - 1, 0)
    b = [c] * max(h - 1, 0) + draw(st.lists(entries, min_size=links, max_size=links))
    return linalg._Path(draw(st.lists(entries, min_size=n, max_size=n)), b, h, c)


def _dense(tree):
    """``tree`` with each ``linalg._Path`` replaced by its dense rows, entry
    (i, j) read off the path: a_i on the diagonal, c inside the head, else
    b_min(i, j) next to the diagonal and 0 off it."""
    if type(tree) is linalg._Path:
        a, b, h, c = tree
        return [[a[i] if i == j else c if max(i, j) < h else b[min(i, j)] if abs(i - j) == 1
                 else 0 for j in range(len(a))] for i in range(len(a))]
    if isinstance(tree, (list, tuple)):
        return [_dense(x) for x in tree]
    if isinstance(tree, dict):
        return {key: _dense(value) for key, value in tree.items()}
    return tree


_MATRIX_TREES = st.recursive(
    st.one_of(_paths(), _JSON_TREES),
    lambda children: st.one_of(st.lists(children, max_size=3),
                               st.dictionaries(_TEXT, children, max_size=3),
                               st.lists(st.tuples(children, st.integers(1, 3)),
                                        max_size=3).map(_runs)),
    max_leaves=8)

# a 5 x 5 path with a zero diagonal and a zero link, and a clique head
# of three rows with zero diagonals and a zero link to the path after it,
# each placed twice at one indent and once at another
_PATH = linalg._Path([-7, 0, 1, 2, -10**40], [10**30, 0, -1, 4], 0, 0)
_HEAD = linalg._Path([0, 0, 0, 5, 10**40], [-1, -1, 0, 3], 3, -1)


class TestJsonText:
    @given(_JSON_TREES)
    @example([1, True, 0])
    @example({"": [], "a": {}, "b": ((),), "\u00e9\"\\": [-10**30, None, False]})
    @example([None])
    @example([None, None])
    @example([0, 0, False, 0])
    @example([[0] * 9, [0] * 9])
    @example([[0] * 9] * 2)
    @example([{"a": [None, "x"]}] * 3 + [[], []])
    @example({"a": _SHARED, "b": _SHARED, "c": [_SHARED]})
    @example([_SHARED, [_SHARED], _SHARED])
    @example([[_SHARED], _SHARED, (_SHARED, _SHARED)])
    @settings(max_examples=300, deadline=None)
    def test_equals_json_dumps(self, tree):
        assert json_text(tree) == json.dumps(tree, sort_keys=True, indent=2)

    @given(_shared_subtrees())
    @settings(max_examples=200, deadline=None)
    def test_shared_subtrees_equal_json_dumps(self, tree):
        assert json_text(tree) == json.dumps(tree, sort_keys=True, indent=2)

    def test_shared_matrix_is_written_once(self, monkeypatch):
        m = tuple(tuple(range(i, i + 50)) for i in range(50))
        calls = []
        write = cli._write

        def counting(*args):
            calls.append(args[0])
            return write(*args)

        monkeypatch.setattr(cli, "_write", counting)
        json_text({"a": m})
        once = len(calls)
        assert once == 52  # the dict, m and its 50 rows
        calls.clear()
        tree = {"a": m, "b": m}
        assert json_text(tree) == json.dumps(tree, sort_keys=True, indent=2)
        assert len(calls) == once + 1

    @given(_MATRIX_TREES)
    @example(linalg._Path([], [], 0, 0))
    @example(linalg._Path([0], [], 0, 0))
    @example(linalg._Path([-5], [], 0, 0))
    @example({"a": linalg._Path([0, 0], [0], 0, 0),
              "b": [linalg._Path([0, 0], [10**40], 0, 0)]})
    @example(linalg._Path([1, 2, 3], [0, 0], 3, 0))  # c = 0: a head of zeros off the diagonal
    @example(_PATH)
    @example({"a": _PATH, "b": _PATH, "c": [_PATH]})
    @example([_PATH, [_PATH], {"k": _PATH}, _PATH])
    @example([{"matrix": _PATH, "values": [1, 2]}, {"matrix": _PATH, "values": []}])
    @example(_HEAD)
    @example([_HEAD, {"k": _HEAD}, _HEAD, _PATH])
    @settings(max_examples=300, deadline=None)
    def test_paths_equal_json_dumps_of_dense_rows(self, tree):
        assert json_text(tree) == json.dumps(_dense(tree), sort_keys=True, indent=2)

    @given(_shared_subtrees(_MATRIX_TREES))
    @settings(max_examples=100, deadline=None)
    def test_shared_paths_equal_json_dumps_of_dense_rows(self, tree):
        assert json_text(tree) == json.dumps(_dense(tree), sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(0), 0.5, 0.0, True, False])
    def test_inexact_or_bool_sparse_entry_raises(self, value):
        Path = linalg._Path
        for path in (Path([value], [], 0, 0),  # in a
                     Path([1, 2, value], [0, 0], 0, 0),
                     Path([1, 2, 3], [1, value], 0, 0),  # in b, on a path
                     Path([0, 0, 0, 1], [2, 2, value], 3, 2),  # in b, after a head
                     Path([0, 0, 0], [value, value], 3, value),  # in c
                     Path([1, 1, 1, -2], [value, value, -1], 3, value)):
            for tree in (path, {"k": [path]}):
                with pytest.raises(TypeError):
                    json_text(tree)

    def test_shared_report_matrix_is_written_once(self, capsys, monkeypatch):
        # three presentations share one 40-row form: its rows are made
        # once, in JSON and in text, and the JSON holds the matrix thrice
        rows = []
        write = cli._row
        monkeypatch.setattr(cli, "_row",
                            lambda path, i, *args: rows.append(i) or write(path, i, *args))
        argv = ["d3", "--tb", "-2", "--rot", "1", "--slope", "-1/40"]
        code, out, _ = run(capsys, *argv, "--json")
        results = json.loads(out)["results"]["presentations"]
        assert code == 0 and len(results) == 3 and out.count('"matrix"') == 3
        n = len(results[0]["matrix"])
        assert results[1]["matrix"] == results[2]["matrix"] == results[0]["matrix"] and n == 40
        assert rows == list(range(n))
        rows.clear()
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.count("presentation:") == 3
        assert rows == list(range(n))

    @pytest.mark.parametrize("value", [0.5, Fraction(1, 2), {1, 2}])
    def test_inexact_or_unknown_types_raise(self, value):
        for tree in (value, [1, value], {"k": [value]}):
            with pytest.raises(TypeError):
                json_text(tree)

    @pytest.mark.parametrize("value", [0.0, Fraction(1, 2), Fraction(0)])
    def test_inexact_entry_of_a_mostly_zero_row_raises(self, value):
        for row in ([0] * 9 + [value], [value] + [0] * 9, [0] * 4 + [value, value] + [0] * 4):
            with pytest.raises(TypeError):
                json_text(row)

    def test_bools_in_a_mostly_zero_row_print_as_bools(self):
        assert json_text([0] * 8 + [False, True]).endswith("0,\n  false,\n  true\n]")


class TestUnknotCommand:
    def test_underscore_in_coefficient_exits_2(self, capsys):
        for text in ("1_0/3", "1/_3"):
            code, out, err = run(capsys, "unknot", "--tb", "-1", "--rot", "0",
                                 "--coeff", text)
            assert code == 2 and out == ""
            assert err == f"error: malformed slope {text!r}: expected p/q or p\n"

    def test_boundary_case(self, capsys):
        code, out, _ = run(capsys, "unknot", "--tb", "-1", "--rot", "0",
                           "--coeff", "5/3")
        assert code == 0
        assert "3 equivalent surgeries" in out

    def test_one_equivalent_surgery_is_singular(self, capsys):
        code, out, _ = run(capsys, "unknot", "--tb", "-2", "--rot", "1", "--coeff", "-1/2")
        assert code == 0
        assert out.endswith("equivalence class: infinite, 1 equivalent surgery at this slope\n")

    def test_unique_case(self, capsys):
        code, out, _ = run(capsys, "unknot", "--tb", "-3", "--rot", "0",
                           "--coeff", "-1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["results"]["equivalence"] == "unique"

    def test_large_denominator_count(self, capsys):
        code, out, _ = run(capsys, "unknot", "--tb", "-1", "--rot", "0",
                           "--coeff", "300001/300000", "--json")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["tightness"] == "tight"
        assert results["count_at_slope"] == 300001

    def test_parity_error_exits_2(self, capsys):
        code, _, _ = run(capsys, "unknot", "--tb", "-1", "--rot", "1",
                         "--coeff", "5/3")
        assert code == 2


class TestVerifyCommand:
    def test_small_bounds_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--k-max", "3", "--n-max", "3")
        assert code == 0
        assert "closed forms" in out and "MISMATCH" not in out

    def test_corrupted_formula_fails(self, capsys, monkeypatch):
        # negative control: corrupt one closed form and expect a nonzero exit
        from contactsurg.closedforms import DEFAULT_FORMS

        monkeypatch.setitem(DEFAULT_FORMS, "chain_det", lambda n: (-1) ** n * (n + 2))
        code, out, _ = run(capsys, "verify", "--k-max", "3", "--n-max", "3")
        assert code == 1
        assert "MISMATCH" in out

    def test_solver_solutions_are_reported(self, capsys, monkeypatch):
        # a solution at tb = -9 lies inside verify's tb range, -k_max..-3,
        # and outside the cell scan's -8..-1; the failing stage names it
        import contactsurg.cosmetic as cosmetic

        def solver(tb, family, n_max=20):
            if (tb, family) == (-9, "pm_one"):
                return [{"family": family, "i": 0, "e1": 1, "e2": 1}]
            return []

        monkeypatch.setattr(cosmetic, "solve_d3_equation", solver)
        code, out, _ = run(capsys, "verify", "--k-max", "9", "--n-max", "1", "--json")
        assert code == 1
        results = json.loads(out)["results"]
        assert results["ok"] is False
        closed, regressions, scan = results["summaries"]
        assert closed["ok"] and regressions["ok"]
        assert scan["name"] == "obstruction scan" and scan["ok"] is False
        assert scan["mismatches"] == [{
            "check": "scan",
            "not_obstructed": [{"tb": -1, "rot": 0, "v": "2"}],
            "solver_solutions": [{"tb": -9, "family": "pm_one", "i": 0, "e1": 1, "e2": 1}],
        }]
        code, out, _ = run(capsys, "verify", "--k-max", "9", "--n-max", "1")
        assert code == 1
        assert f"obstruction scan: {scan['checks']} checks, MISMATCH" in out


def test_parser_is_built_once(monkeypatch, capsys):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(2):
        assert main(["cs-set", "3", "1"]) == 0
    assert built.count("contactsurg") <= 1


def _fraction_text(max_value):
    return st.one_of(
        st.builds(lambda p, q: f"{p}/{q}", st.integers(-max_value, max_value),
                  st.integers(1, max_value)),
        st.builds(lambda p, q: f"{p}/{q}", st.integers(-max_value, max_value),
                  st.integers(-max_value, max_value)),
        st.integers(-max_value, max_value).map(str),
        st.sampled_from(["inf", "0", "1/0", "0/0", "abc", "1/2/3", "-", ""]),
    )


@st.composite
def _knot(draw, tb_min, tb_max):
    """(tb, rot), the rotation mostly of the right parity and in range."""
    tb = draw(st.integers(tb_min, tb_max))
    rot = draw(st.one_of(
        st.sampled_from([tb + 1, -tb - 1]),
        st.integers(0, max(0, -tb - 1)).map(lambda j: tb + 1 + 2 * j),
        st.integers(-13, 13)))
    return ["--tb", str(tb), "--rot", str(rot)]


@st.composite
def _cs_set_args(draw):
    p = draw(st.integers(-3, 10**6))
    q = draw(st.one_of(st.integers(1, max(1, p)), st.integers(-10**6, 10**6)))
    return ["cs-set", str(p), str(q), "--bound", str(draw(st.integers(-3, 60)))]


CLI_ARGS = st.one_of(
    st.builds(lambda knot, coeff: ["unknot", *knot, "--coeff", coeff],
              _knot(-12, 2), _fraction_text(10**6)),
    _cs_set_args(),
    st.builds(lambda knot, flag, value: ["d3", *knot, flag, value],
              _knot(-4, 2), st.sampled_from(["--slope", "--coeff"]), _fraction_text(12)),
)


@given(argv=CLI_ARGS, as_json=st.booleans())
@example(argv=["d3", "--tb", "-1", "--rot", "0", "--slope", ""], as_json=False)
@example(argv=["d3", "--tb", "-1", "--rot", "0", "--slope", "-99999999999999999999999"],
         as_json=False)  # more presentations than a list holds
@example(argv=["d3", "--tb", "-99999999999999999999", "--rot", "0", "--slope", "-1/2"],
         as_json=False)  # more chain unknots than a list holds
@example(argv=["d3", "--tb", "-1", "--rot", "0", "--coeff", "1/99999999999999999999999"],
         as_json=False)  # more push-offs than a list holds
@settings(max_examples=200, deadline=None)
def test_cli_fuzz_exit_codes_and_json(argv, as_json):
    """Exit 0 or 2 on any input, never a traceback; --json output
    survives a parse and re-serialization byte for byte."""
    argv = argv + (["--json"] if as_json else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().strip()
    elif as_json:
        text = out.getvalue()
        assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text
