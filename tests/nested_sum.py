"""The 40-digit oracle of the scalar operators (test_scalar_rows.py,
test_python_layers.py): the nested Bernstein sum of a float node table."""

import math

import mpmath


def _powers(x, top):
    out = [mpmath.mpf(1)]
    for _ in range(top):
        out.append(out[-1] * x)
    return out


def mp_nested_sum(s, t, counts, table):
    """sum_k p^n_k(s) sum_j p^{n_k}_j(t) table[k, j] at 40 digits, with s, t
    and the table entries taken as exact binary values; row k holds its
    n_k + 1 = counts[k] + 1 entries first. Each inner basis row is built
    once per degree, from the powers of t and 1 - t, and a row that adds
    exactly 0 (no outer weight at s = 0 or 1, or all zeros) is skipped."""
    with mpmath.workdps(40):
        s, t = mpmath.mpf(s), mpmath.mpf(t)
        n, counts = len(counts) - 1, [int(m) for m in counts]
        sp, sq = _powers(s, n), _powers(1 - s, n)
        tp, tq = _powers(t, max(counts)), _powers(1 - t, max(counts))
        inner, terms = {}, []
        for k, m in enumerate(counts):
            weight = math.comb(n, k) * sp[k] * sq[n - k]
            if not weight or not table[k, : m + 1].any():
                continue
            if m not in inner:
                inner[m] = [math.comb(m, j) * tp[j] * tq[m - j] for j in range(m + 1)]
            row = mpmath.fdot(inner[m], table[k, : m + 1].tolist())
            terms.append(weight * row)
        return mpmath.fsum(terms)
