"""One construction for every trapezoid operator: square_bernstein and
simplex_bernstein are bivariate.stancu on disk._SQUARE and disk._SIMPLEX
(their bits and f calls are pinned in test_scalar_rows.py). Also the checks
every stancu call makes first: a point that is not finite, then one outside
the domain, both before the schedule's counts (so before its n_k warning)
and before f; a sched that is not a NodeSchedule; and a domain whose
endpoints are not finite or not increasing, rejected before its grid.
"""

import math
import warnings

import pytest

from diskbern import bivariate as biv
from diskbern import disk
from diskbern import experiments as ex
from diskbern.bivariate import CurvilinearDomain, NodeSchedule

SCHEDULES = [NodeSchedule.constant(3), NodeSchedule.n_minus_k(), NodeSchedule.k_index()]
SCHEDULE_IDS = ["constant", "n-minus-k", "k"]


def recording():
    calls = []
    return (lambda x, y: calls.append((x, y)) or 1.0), calls


def test_the_square_and_simplex_domains_and_their_public_names():
    assert not disk._SQUARE.degenerate_left and not disk._SQUARE.degenerate_right
    assert not disk._SIMPLEX.degenerate_left and disk._SIMPLEX.degenerate_right  # the corner (1, 0)
    assert {"square_bernstein", "simplex_bernstein"} <= set(disk.__all__)


# (operator as op(f, sched, x, y), an inside point)
OPERATORS = {
    "stancu": (lambda f, sched, x, y: biv.stancu(f, biv.UNIT_SQUARE, 4, sched, x, y), (0.5, 0.5)),
    "square_bernstein": (lambda f, sched, x, y: disk.square_bernstein(f, 4, sched, x, y), (0.2, -0.4)),
    "simplex_bernstein": (lambda f, sched, x, y: disk.simplex_bernstein(f, 4, sched, x, y), (0.2, 0.3)),
    "stancu_determinant": (lambda f, sched, x, y: biv.stancu_determinant(f, biv.UNIT_SQUARE, 3, sched,
                                                                         x, y), (0.5, 0.5)),
    "monomial_image": (lambda f, sched, x, y: biv.monomial_image("y2", biv.UNIT_SQUARE, 3, sched,
                                                                 x, y), (0.5, 0.5)),
}


@pytest.mark.parametrize("sched", SCHEDULES, ids=SCHEDULE_IDS)
@pytest.mark.parametrize("bad", [(math.nan, 0.2), (0.2, math.nan), (math.inf, 0.0), (0.0, -math.inf)],
                         ids=["nan-x", "nan-y", "inf-x", "-inf-y"])
@pytest.mark.parametrize("name", list(OPERATORS))
def test_a_non_finite_point_is_named_before_the_counts_and_f(name, bad, sched):
    op, _ = OPERATORS[name]
    f, calls = recording()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no n_k warning comes first
        with pytest.raises(ValueError, match=r"point \(.+\) is not finite"):
            op(f, sched, *bad)
    assert calls == []


@pytest.mark.parametrize("sched", SCHEDULES, ids=SCHEDULE_IDS)
@pytest.mark.parametrize("name", list(OPERATORS))
def test_an_outside_point_is_named_before_the_counts_and_f(name, sched):
    op, _ = OPERATORS[name]
    f, calls = recording()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"point \(1\.5, 0\.75\) outside the domain"):
            op(f, sched, 1.5, 0.75)
    assert calls == []


@pytest.mark.parametrize("sched", [None, "constant", 3, NodeSchedule], ids=["None", "str", "int", "class"])
@pytest.mark.parametrize("name", list(OPERATORS) + ["ball_stancu", "stancu_nodes"])
def test_a_sched_that_is_not_a_node_schedule_is_named(name, sched):
    f, calls = recording()
    with pytest.raises(ValueError, match=r"sched must be a NodeSchedule, got "):
        if name == "ball_stancu":
            disk.ball_stancu(f, 3, sched, 0.1, 0.1)
        elif name == "stancu_nodes":
            biv.stancu_nodes(biv.UNIT_SQUARE, 3, sched)
        else:
            op, point = OPERATORS[name]
            op(f, sched, *point)
    assert calls == []


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan),
                                  (1.0, 0.0), (0.5, 0.5)])
def test_a_domain_with_bad_endpoints_raises_before_its_grid(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy's linspace warns on inf
        with pytest.raises(ValueError, match="interval endpoints must be finite|need alpha < beta"):
            CurvilinearDomain(a, b, lambda x: 0.0, lambda x: 1.0)


def test_a_domain_builds_its_x_interval_once():
    dom = CurvilinearDomain(-2.0, 3.0, lambda x: 0.0, lambda x: 1.0)
    assert dom.x_interval is dom.x_interval
    assert (dom.x_interval.alpha, dom.x_interval.beta) == (-2.0, 3.0)


def test_the_square_accepts_a_point_within_slack_of_its_edge():
    f = ex.builtin(1)
    sched = NodeSchedule.constant(5)
    edge = disk.square_bernstein(f, 5, sched, 1.0, -1.0)
    # 1e-10 outside: past the old 1e-12 box check, inside the domain's 1e-9 slack
    assert disk.square_bernstein(f, 5, sched, 1.0 + 1e-10, -1.0 - 1e-10) == edge
    with pytest.raises(ValueError, match="outside the domain"):
        disk.square_bernstein(f, 5, sched, 1.0 + 1e-8, 0.0)
