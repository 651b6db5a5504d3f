"""univariate._elevate of rows of the degrees of every node-table form,
against the exact rational degree elevation of the same float table.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from diskbern import univariate as uv


def degree_sets(n):
    """The row degrees of a node table at degree n, by the form that builds it."""
    k = np.arange(n + 1)
    return {"constant": np.full(n + 1, n), "n-minus-k": np.maximum(n - k, 1),
            "k": np.maximum(k, 1), "quadrant": n - k}


FORMS = ("constant", "n-minus-k", "k", "quadrant")


def exact_elevation(row, m, n):
    """sum_j row[j] C(m, j) C(n - m, i - j) / C(n, i) for i = 0..n, exactly."""
    d = n - m
    return [sum(Fraction(row[j]) * math.comb(m, j) * math.comb(d, i - j)
                for j in range(max(0, i - d), min(m, i) + 1)) / math.comb(n, i)
            for i in range(n + 1)]


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("n", [1, 2, 5, 17, 40])
def test_elevated_rows_within_n_squared_over_4_ulps_of_the_exact_elevation(n, form):
    """Two tables at once (the convolution of all tables and of each table
    alone both run when degrees fall below n / 2), with signs, a row of
    zeros and rows of very different sizes: each elevated coefficient is
    within n^2 / 4 ulps of its row's largest |F| of the exact value. The
    binomials come from exp of logs near n, each about n ulps off, and a
    coefficient sums up to n of their products; the worst measured is
    0.18 n^2 ulps (284 at n = 40)."""
    degrees = degree_sets(n)[form]
    rng = np.random.default_rng(n)
    tables = np.zeros((2, n + 1, n + 1))
    for k, m in enumerate(degrees.tolist()):
        tables[:, k, : m + 1] = rng.uniform(-1.0, 1.0, (2, m + 1)) * 2.0 ** rng.integers(-40, 40)
    tables[1, n // 2] = 0.0
    elevated = uv._elevate(tables.copy(), degrees)
    for table, result in zip(tables, elevated):
        for k, m in enumerate(degrees.tolist()):
            scale = float(np.abs(table[k]).max())
            exact = exact_elevation(table[k].tolist(), m, n)
            error = max(abs(Fraction(c) - e) for c, e in zip(result[k].tolist(), exact))
            assert error <= Fraction(n * n * np.spacing(scale)) / 4, (k, m, float(error))
