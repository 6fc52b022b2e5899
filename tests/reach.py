"""The reach check: which tests call which function of ``src/``.

``python tests/reach.py`` (from the repository root) runs tier-1 in this
process with a ``sys.setprofile`` hook, live during each test's fixture
setup and body, that records the functions of ``src/contactsurg`` and
of ``tests/oracles.py`` that run, methods and nested functions too,
and which ``src/`` functions a test or an oracle calls itself.  Code run
at import or collection, or in a child process, belongs to no test.

It prints one row per oracle: how many tests call it, the ``src/``
functions those tests or oracles call, and the tests, counted by class.
Then the tests that call no ``src/`` function, and the ``src/`` functions
no test calls.  It exits 1 if there is one, or if a test fails.
Profiled, tier-1 takes about three times as long as plain.
"""

import ast
import os
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "contactsurg"
ORACLES = ROOT / "tests" / "oracles.py"


def defined(path, prefix):
    """{(first line, name): label} of each function ``path`` defines,
    methods and nested functions too, the first line as its code object
    counts it (the first decorator's).  The label is ``prefix`` and the
    qualified name."""
    out = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[first, child.name] = ".".join([prefix, *scope, child.name])
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + [child.name] if named else scope)

    visit(ast.parse(path.read_text(), str(path)), [])
    return out


class Recorder:
    """A pytest plugin that records, per test id, the labels of the
    functions of ``labels`` = {file: {(first line, name): label}} that
    run during the test's setup and call, each with a "*" in front too
    when the caller's file is one of ``callers``."""

    def __init__(self, labels, callers):
        self.labels = labels
        self.callers = callers
        self.codes = {}  # code object -> its label, or None
        self.calls = defaultdict(set)
        self.failed = []
        self.seen = None

    def _profile(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            label = self.codes.get(code, False)
            if label is False:
                label = self.codes[code] = self.labels.get(code.co_filename, {}).get(
                    (code.co_firstlineno, code.co_name))
            if label:
                self.seen.add(label)
                if frame.f_back and frame.f_back.f_code.co_filename in self.callers:
                    self.seen.add("*" + label)

    def _traced(self, item):
        self.seen = self.calls[item.nodeid]
        sys.setprofile(self._profile)
        try:
            yield
        finally:
            sys.setprofile(None)

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_setup(self, item):
        yield from self._traced(item)

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        yield from self._traced(item)

    def pytest_runtest_logreport(self, report):
        self.calls[report.nodeid]  # a test that calls nothing is recorded too
        if report.failed:
            self.failed.append(report.nodeid)


def _group(tests):
    """``tests`` counted by file and class, as one line of text."""
    groups = defaultdict(int)
    for test in tests:
        groups["::".join(test.split("[")[0].split("::")[:-1]) or test] += 1
    return ", ".join(f"{group} ({n})" if n > 1 else group for group, n in sorted(groups.items()))


def main():
    src = {str(path): defined(path, "contactsurg." + path.stem)
           for path in sorted(SRC.glob("*.py"))}
    oracles = defined(ORACLES, "oracles")
    callers = {str(path) for path in (ROOT / "tests").glob("*.py")}
    recorder = Recorder({**src, str(ORACLES): oracles}, callers)
    os.chdir(ROOT)
    code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"], plugins=[recorder])
    calls = {test: sorted(labels) for test, labels in sorted(recorder.calls.items())}

    def library(labels):
        return [label for label in labels if label.startswith("contactsurg.")]

    print("\noracle | tests | src/ functions those tests or oracles call | those tests")
    for oracle in sorted(set(oracles.values())):
        tests = [test for test, labels in calls.items() if oracle in labels]
        reached = sorted({label[1:] for test in tests for label in calls[test]
                          if label.startswith("*contactsurg.")})
        print(f"{oracle} | {len(tests)} | {', '.join(reached) or '-'} | {_group(tests) or '-'}")
    idle = [test for test, labels in calls.items() if not library(labels)]
    print(f"\n{len(idle)} of {len(calls)} tests call no src/ function")
    for test in idle:
        print(f"  {test}")
    every = sorted({label for labels in src.values() for label in labels.values()})
    reached = {label for labels in calls.values() for label in library(labels)}
    unreached = [label for label in every if label not in reached]
    print(f"\n{len(every) - len(unreached)} of {len(every)} src/ functions are called by a test")
    for label in unreached:
        print(f"  not called by any test: {label}")
    if code:
        print(f"tier-1 failed (pytest exit {code}): {', '.join(recorder.failed)}")
    return 1 if unreached or code else 0


if __name__ == "__main__":
    sys.exit(main())
