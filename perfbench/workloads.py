"""The benchmark's workloads: seeded inputs, one query per input, and an
exact check of every answer.

A workload is one pass: a fixed list of queries built from the seed
before timing starts. Each query calls into contactsurg through a module
attribute looked up at call time, so the span wrappers of a traced run
see it.

- ``verify``: ``contactsurg verify --json`` at its defaults through
  ``cli.main``, the command users run to re-check the paper end to end.
  Its closed-form sweep is about 90% of the time. It takes no input, so
  the seed is only recorded.
- ``scan``: ``cosmetic.scan(tb, tb, 12)`` for each tb in -12..-1, in an
  order the seed shuffles; together one ``scan(-12, -1, 12)``. Thousands
  of small forms repeat across rot and +-v, so the signature memo,
  ``solve_columns`` and the c1^2 assembly do most of the work.
- ``long_chain``: ``contactsurg d3 --slope -1/N --json`` with N on a
  geometric ladder from 40 to 200 (seeded jitter of +-1), tb = -1 and -2
  in turn.
  One large form per query, the memo never hits, and the characteristic
  polynomial dominates: the opposite use of ``linalg`` to ``scan``.
- ``farey``: lens-space counts on random coprime (p, q) with short
  continued-fraction blocks, (p, 1) on a ladder (one long block), and
  unknot counts through ``cli.main`` on a ladder of k. No ``linalg``
  work. Two inputs exceed the Farey path's 100,000-step limit and fail
  at the seed; they stay in, so the failure shows in the metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import oracles

SCAN_TB_MIN = -12
SCAN_N_MAX = 12

# An odd number of rungs, so that the median latency of a run falls
# inside the middle rung, whatever the number of passes, and not on the
# gap between two.
CHAIN_LADDER = [round(40 * 5 ** (i / 8)) for i in range(9)]  # 40 .. 200
# Small against the big rungs, which take most of the time, so that the
# work of a pass hardly depends on the seed.
CHAIN_JITTER = 1

# Enough that the median latency, which falls among these, hardly
# depends on which pairs the seed draws; p is drawn from equal slices of
# log p in turn, which keeps it log-uniform.
LENS_RANDOM_PAIRS = 1200
LENS_P_MAX = 10**6
LENS_LADDER = [1000, 3000, 10000, 30000, 60000]
UNKNOT_LADDER = [20, 40, 60, 80, 110, 150]
# Both need more than 100,000 Farey path steps.
LENS_TOO_LONG = 200001
UNKNOT_TOO_LONG = 300000

# Reference seconds of one pass at the baseline. A run makes
# round(--seconds / PASS_SECONDS) passes, so that on every commit it has
# the same number of samples and so reports the same percentile as its tail.
PASS_SECONDS = {"verify": 8.2, "scan": 2.3, "long_chain": 3.5, "farey": 5.7}
WORKLOADS = tuple(PASS_SECONDS)


@dataclass(frozen=True)
class Query:
    label: str
    kind: str  # groups queries for the scaling fits
    size: int  # position on the workload's ladder
    call: Callable[[], object]
    check: Callable[[object], str]  # "ok", "wrong" or "failed"
    cli: bool = False  # call returns (exit code, stdout text)


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_query(cli, label, kind, size, argv, problem, wrong_codes=()):
    """A query through ``cli.main``; ``problem`` maps the JSON report to
    None when it is right. An exit code in ``wrong_codes`` reports a
    wrong answer, any other non-zero code a failure."""

    def check(result):
        code, text = result
        if code in wrong_codes:
            return "wrong"
        if code != 0:
            return "failed"
        return "ok" if problem(json.loads(text)) is None else "wrong"

    return Query(label, kind, size, lambda: _run_cli(cli, argv), check, cli=True)


def _verify(rng, pkg):
    return [_cli_query(pkg.cli, "verify", "verify", 0, ["verify", "--json"],
                       oracles.verify_problem, wrong_codes=(1,))]


def _scan(rng, pkg):
    tbs = list(range(SCAN_TB_MIN, 0))
    rng.shuffle(tbs)
    cosmetic = pkg.cosmetic

    def query(tb):
        return Query(
            f"scan tb={tb}", "scan", -tb,
            lambda: cosmetic.scan(tb, tb, SCAN_N_MAX),
            lambda report: "ok" if oracles.scan_cell_problem(tb, SCAN_N_MAX, report) is None
            else "wrong")

    return [query(tb) for tb in tbs]


def _long_chain(rng, pkg):
    queries = []
    for rung, base in enumerate(CHAIN_LADDER):
        n = base + rng.randint(-CHAIN_JITTER, CHAIN_JITTER)
        # tb alternates along the ladder, so that the seed moves neither
        # the work of a pass nor its peak memory; the seed picks rot.
        tb, rot = (-1, 0) if rung % 2 == 0 else (-2, rng.choice((1, -1)))
        expected = oracles.d3_chain_spectrum(tb, n)
        queries.append(_cli_query(
            pkg.cli, f"d3 tb={tb} rot={rot} slope=-1/{n}", "d3", n,
            ["d3", "--tb", str(tb), "--rot", str(rot), "--slope", f"-1/{n}", "--json"],
            lambda report, expected=expected: (
                None if set(report["results"]["spectrum"]) == expected else "spectrum")))
    rng.shuffle(queries)
    return queries


def _lens_query(farey, p, q, kind):
    expected = oracles.tight_lens_count(p, q)
    return Query(f"lens L({p},{q})", kind, p,
                 lambda: farey.count_tight_lens_pq(p, q),
                 lambda count: "ok" if count == expected else "wrong")


def _unknot_query(cli, k, open_interval):
    coeff = f"{2 * k + 3}/{2 * k + 1}" if open_interval else f"{k + 1}/{k}"
    expected = oracles.unknot_count(k, open_interval)

    def problem(report):
        results = report["results"]
        if results["tightness"] != "tight" or results["count_at_slope"] != expected:
            return f"count {results['count_at_slope']}"
        return None

    return _cli_query(cli, f"unknot coeff={coeff}", "unknot", k,
                      ["unknot", "--tb", "-1", "--rot", "0", "--coeff", coeff, "--json"],
                      problem)


def _farey(rng, pkg):
    queries = []
    lo, width = math.log(2), math.log(LENS_P_MAX / 2) / LENS_RANDOM_PAIRS
    while len(queries) < LENS_RANDOM_PAIRS:
        start = lo + len(queries) * width
        p = round(math.exp(rng.uniform(start, start + width)))
        q = rng.randrange(1, p)
        if math.gcd(p, q) == 1:
            queries.append(_lens_query(pkg.farey, p, q, "lens_random"))
    for p in LENS_LADDER + [LENS_TOO_LONG]:
        queries.append(_lens_query(pkg.farey, p, 1, "lens_p1"))
    for k in UNKNOT_LADDER:
        queries.append(_unknot_query(pkg.cli, k, open_interval=False))
        queries.append(_unknot_query(pkg.cli, k, open_interval=True))
    queries.append(_unknot_query(pkg.cli, UNKNOT_TOO_LONG, open_interval=False))
    rng.shuffle(queries)
    return queries


def build(workload: str, seed: int, pkg) -> list:
    """One pass of the named workload. The same seed gives the same queries."""
    builders = {"verify": _verify, "scan": _scan, "long_chain": _long_chain,
                "farey": _farey}
    return builders[workload](random.Random(f"{workload}:{seed}"), pkg)
