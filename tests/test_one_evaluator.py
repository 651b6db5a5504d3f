"""One scalar evaluator: in src/diskbern only bivariate._scalar_values uses
the inner rows of several degrees (univariate._row_triangle, which
basis_row also calls for its one degree) and the node-table memo
(bivariate._node_table), so every scalar operator is its (x, y) -> (s, t)
map plus one call of it. A scalar operator that sums its own rows or reads
the memo fails here; call _scalar_values instead. Only _row_triangle reads
the shared log-binomial rows (univariate._log_binomial_rows), and only that
reader builds them (_log_binomial_block), so a second copy of the inner
rows' log C(m, k) table fails here too. And only three operators
call _scalar_values: bivariate.stancu (which the square and simplex
operators call on their domains), the chord disk and the quadrants.
"""

from name_users import users

GUARDED = {"_row_triangle", "_node_table", "_log_binomial_rows", "_log_binomial_block"}


def test_only_the_evaluator_sums_and_reads_the_memo():
    assert users(GUARDED) == {"bivariate._scalar_values": {"_row_triangle", "_node_table"},
                              "univariate.basis_row": {"_row_triangle"},
                              "univariate._row_triangle": {"_log_binomial_rows"},
                              "univariate._log_binomial_rows": {"_log_binomial_block"}}


def test_only_stancu_the_chord_disk_and_the_quadrants_call_the_evaluator():
    assert users({"_scalar_values"}) == {"bivariate.stancu": {"_scalar_values"},
                                         "disk.ball_stancu": {"_scalar_values"},
                                         "disk._quadrant_value": {"_scalar_values"}}


def test_a_bypass_is_found(tmp_path):
    (tmp_path / "extra.py").write_text(
        "from .univariate import _row_triangle\n\n"
        "def summed(outer, t, counts, table):\n"
        "    return outer @ (table * _row_triangle(counts, t)).sum(1)\n\n"
        "def memo(f, n):\n"
        "    return biv._node_table((f, n), lambda: None)\n\n"
        "def passed_on(rows):\n"
        "    return list(map(_row_triangle, rows))\n\n"
        "def nested(f):\n"
        "    def inner():\n"
        "        return _node_table(f, f)\n"
        "    return inner\n\n"
        "def _row_triangle_free(x):\n"
        "    return x\n\n"
        "def own_rows(m, x):\n"
        "    L, d = uv._log_binomial_block(m, m + 1)\n"
        "    return np.exp(L[m] + d[m] * x)\n")
    assert users(GUARDED, tmp_path) == {"extra.summed": {"_row_triangle"},
                                        "extra.memo": {"_node_table"},
                                        "extra.passed_on": {"_row_triangle"},
                                        "extra.nested.inner": {"_node_table"},
                                        "extra.own_rows": {"_log_binomial_block"}}
