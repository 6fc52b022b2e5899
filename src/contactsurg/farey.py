"""The tight lens count: Honda's closed form ("On the classification of
tight contact structures I", 2000) for L(p, q), taken inside one
run-coded Euclid on -p/q, all in ints.

The count equals the number of decorated minimal Farey paths from -p/q
to 0 up to sign shuffles inside each continued-fraction block; that
count, the minimal paths themselves and Honda's product over
``slopes.neg_cf_runs`` are test oracles (``tests/oracles.py``).
"""

from __future__ import annotations


def count_tight_lens_pq(p: int, q: int) -> int:
    """Tight structures on L(p, q), presented as -p/q surgery data:
    Honda's product |(r_0 + 1) ... (r_k + 1)| over the negative continued
    fraction -p/q = [r_0, ..., r_k], in O(log p) steps.

    The Euclid runs on n/b = -r for the remaining fraction r: a term
    r_i = -ceil(n/b) <= -3 gives the factor ceil(n/b) - 1 = (n - 1) // b,
    and a run of terms -2 (d = n - b <= b, each a factor 1) is taken in
    one step, b mod d, however long it is.  The Euclid keeps gcd(n, b),
    so p and q are coprime when the last n is 1."""
    if p < 1:
        raise ValueError("lens space needs p >= 1")
    q %= p
    if p == 1:
        return 1
    n, b, count = p, q, 1
    while b:
        d = n - b
        if d > b:
            count *= (n - 1) // b
            n, b = b, -n % b
        else:
            b %= d
            n = b + d
    if n != 1:
        raise ValueError(f"L({p},{q}) is not a lens space")
    return count
