"""One scalar evaluator: in src/diskbern only bivariate._scalar_values reads
the node-table memo (bivariate._node_table), so every scalar operator is its
(x, y) -> (s, t) map plus one call of it. A scalar operator that reads the
memo itself fails here; call _scalar_values instead. Only the evaluator's
table build and the batch kernels' off-mesh path
(experiments._operator_values) raise rows to one degree
(univariate._elevate), and only _elevate builds a log-binomial block
(univariate._log_binomial_block), so a second elevation or a second copy of
the log C(m, k) table fails here too. And only three operators call
_scalar_values: bivariate.stancu (which the square and simplex operators
call on their domains), the chord disk and the quadrants.
"""

from name_users import users

GUARDED = {"_node_table", "_elevate", "_log_binomial_block"}


def test_only_the_evaluator_reads_the_memo_and_only_two_paths_elevate():
    assert users(GUARDED) == {"bivariate._scalar_values": {"_node_table"},
                              "bivariate._scalar_values.build": {"_elevate"},
                              "experiments._operator_values": {"_elevate"},
                              "univariate._elevate": {"_log_binomial_block"}}


def test_only_stancu_the_chord_disk_and_the_quadrants_call_the_evaluator():
    assert users({"_scalar_values"}) == {"bivariate.stancu": {"_scalar_values"},
                                         "disk.ball_stancu": {"_scalar_values"},
                                         "disk._quadrant_value": {"_scalar_values"}}


def test_a_bypass_is_found(tmp_path):
    (tmp_path / "extra.py").write_text(
        "from .univariate import _elevate\n\n"
        "def raised(table, counts):\n"
        "    return _elevate(table[None], counts)[0]\n\n"
        "def memo(f, n):\n"
        "    return biv._node_table((f, n), lambda: None)\n\n"
        "def passed_on(tables):\n"
        "    return list(map(_elevate, tables))\n\n"
        "def nested(f):\n"
        "    def inner():\n"
        "        return _node_table(f, f)\n"
        "    return inner\n\n"
        "def _elevate_free(x):\n"
        "    return x\n\n"
        "def own_rows(m, x):\n"
        "    L = uv._log_binomial_block(m)\n"
        "    return np.exp(L[m] + x)\n")
    assert users(GUARDED, tmp_path) == {"extra.raised": {"_elevate"},
                                        "extra.memo": {"_node_table"},
                                        "extra.passed_on": {"_elevate"},
                                        "extra.nested.inner": {"_node_table"},
                                        "extra.own_rows": {"_log_binomial_block"}}
