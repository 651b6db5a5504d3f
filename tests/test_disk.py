"""Transformed-domain operators: square, simplex, disk, quadrants."""

import math
import warnings

import numpy as np
import pytest

from diskbern.bivariate import CurvilinearDomain, NodeSchedule, stancu
from diskbern.disk import (
    Quadrant,
    axis_continuity_check,
    ball_stancu,
    piecewise_bernstein_type_disk,
    piecewise_stancu_disk,
    quadrant_bernstein_type,
    quadrant_bernstein_type_via_transforms,
    quadrant_node_table,
    quadrant_stancu,
    simplex_bernstein,
    square_bernstein,
)
from diskbern.univariate import log_factorials

RNG = np.random.default_rng(20240819)


def random_disk_points(count, quadrant=None):
    pts = []
    while len(pts) < count:
        x, y = RNG.uniform(-1, 1, 2)
        if x * x + y * y > 1.0:
            continue
        if quadrant is not None and not (quadrant.sx * x >= 0 and quadrant.sy * y >= 0):
            continue
        pts.append((float(x), float(y)))
    return pts


SMOOTH_FUNCTIONS = [
    lambda x, y: 1.0,
    lambda x, y: x - 2 * y,
    lambda x, y: x * math.sin(5 * x - 6 * y) + y,
    lambda x, y: math.exp(x * x - y * y) - x * y,
]


class TestSquare:
    def test_reproduces_linear(self):
        f = lambda x, y: 2 * x - y + 1
        for x, y in RNG.uniform(-1, 1, (5, 2)):
            v = square_bernstein(f, 6, NodeSchedule.constant(6), float(x), float(y))
            assert v == pytest.approx(f(x, y), abs=1e-11)

    def test_matches_unit_square_operator(self):
        # affine change of variables to [0,1]^2
        f = lambda x, y: math.sin(x + 0.5 * y)
        F = lambda u, v: f(2 * u - 1, 2 * v - 1)
        for x, y in RNG.uniform(-1, 1, (4, 2)):
            direct = square_bernstein(f, 7, NodeSchedule.constant(7), float(x), float(y))
            from diskbern.bivariate import UNIT_SQUARE

            lifted = stancu(
                F, UNIT_SQUARE, 7, NodeSchedule.constant(7), (float(x) + 1) / 2, (float(y) + 1) / 2
            )
            assert direct == pytest.approx(lifted, abs=1e-12)

    def test_outside_raises(self):
        with pytest.raises(ValueError):
            square_bernstein(lambda x, y: 1.0, 3, NodeSchedule.constant(3), 1.2, 0.0)


def simplex_multinomial(f, n, x, y):
    """The classical multinomial operator on the simplex, summed directly:
    an oracle for simplex_bernstein with the n-minus-k schedule, which runs
    the Duffy path. Total on the closed triangle; log-space coefficients,
    zero factors skipped by index."""
    w = max(1.0 - x - y, 0.0)
    lg = log_factorials(n)
    total = 0.0
    for k in range(n + 1):
        if x == 0.0 and k > 0:
            continue
        for j in range(n - k + 1):
            if y == 0.0 and j > 0:
                continue
            m = n - k - j
            if w == 0.0 and m > 0:
                continue
            log_term = lg[n] - lg[k] - lg[j] - lg[m]
            if k:
                log_term += k * math.log(x)
            if j:
                log_term += j * math.log(y)
            if m:
                log_term += m * math.log(w)
            total += math.exp(log_term) * f(k / n, j / n)
    return total


# vertices, (1, 0) among them, points on the three edges, and interior points
SIMPLEX_POINTS = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.3, 0.0), (0.0, 0.6), (0.4, 0.6),
                  (0.75, 0.25), (0.999, 0.0), (0.2, 0.3), (0.05, 0.9), (0.6, 0.15),
                  (1.0 / 3.0, 1.0 / 3.0)]


class TestSimplex:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_multinomial_oracle_matches_duffy_path(self, n):
        for f in SMOOTH_FUNCTIONS:
            for x, y in SIMPLEX_POINTS:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # n_k = 0 at k = n is substituted
                    v = simplex_bernstein(f, n, NodeSchedule.n_minus_k(), x, y)
                assert v == pytest.approx(simplex_multinomial(f, n, x, y), rel=1e-12, abs=1e-11)

    def test_n_minus_k_substitution_warns(self):
        with pytest.warns(UserWarning, match="yields n_k=0"):
            simplex_bernstein(lambda x, y: 1.0, 3, NodeSchedule.n_minus_k(), 0.2, 0.3)

    def test_substitution_warns_once_per_node_table_build(self):
        f = lambda x, y: 1.0
        with pytest.warns(UserWarning, match="yields n_k=0"):
            simplex_bernstein(f, 3, NodeSchedule.n_minus_k(), 0.2, 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a memo hit builds no counts
            simplex_bernstein(f, 3, NodeSchedule.n_minus_k(), 0.4, 0.1)

    @pytest.mark.parametrize("point", [(math.nan, 0.2), (0.2, math.nan), (math.inf, 0.0),
                                       (0.0, -math.inf)])
    @pytest.mark.parametrize("sched", [NodeSchedule.constant(3), NodeSchedule.n_minus_k()],
                             ids=["constant", "n-minus-k"])
    def test_non_finite_point_raises(self, sched, point):
        calls = []
        with pytest.raises(ValueError, match=r"point \(.+\) is not finite"):
            simplex_bernstein(lambda x, y: calls.append((x, y)) or 1.0, 4, sched, *point)
        assert calls == []

    def test_multinomial_reproduces_linear(self):
        f = lambda x, y: 3 * x - y + 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for x, y in ((0.2, 0.3), (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5)):
                v = simplex_bernstein(f, 8, NodeSchedule.n_minus_k(), x, y)
                assert v == pytest.approx(f(x, y), abs=1e-11)

    def test_multinomial_against_brute_force(self):
        f = lambda x, y: math.exp(x - y)
        n = 6
        for x, y in ((0.1, 0.2), (0.4, 0.5), (0.7, 0.05)):
            w = 1.0 - x - y
            brute = 0.0
            for k in range(n + 1):
                for j in range(n - k + 1):
                    m = n - k - j
                    coeff = (
                        math.factorial(n)
                        / (math.factorial(k) * math.factorial(j) * math.factorial(m))
                        * x**k
                        * y**j
                        * w**m
                    )
                    brute += coeff * f(k / n, j / n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                v = simplex_bernstein(f, n, NodeSchedule.n_minus_k(), x, y)
            assert v == pytest.approx(brute, rel=1e-12)
            assert simplex_multinomial(f, n, x, y) == pytest.approx(brute, rel=1e-12)

    def test_degenerate_corner(self):
        f = lambda x, y: math.cos(x) + y
        v = simplex_bernstein(f, 5, NodeSchedule.constant(5), 1.0, 0.0)
        assert v == pytest.approx(f(1.0, 0.0), abs=1e-12)

    def test_outside_raises(self):
        with pytest.raises(ValueError):
            simplex_bernstein(lambda x, y: 1.0, 3, NodeSchedule.constant(3), 0.8, 0.5)


class TestBallStancu:
    def test_reproduces_constants_and_x(self):
        for n in (4, 12):
            sched = NodeSchedule.constant(n)
            for x, y in random_disk_points(5):
                assert ball_stancu(lambda a, b: 2.5, n, sched, x, y) == pytest.approx(
                    2.5, abs=1e-12
                )
                assert ball_stancu(lambda a, b: a, n, sched, x, y) == pytest.approx(x, abs=1e-11)

    def test_collapsed_chord_endpoints(self):
        f = lambda a, b: math.sin(a) + b * b
        for x in (1.0, -1.0):
            v = ball_stancu(f, 9, NodeSchedule.constant(9), x, 0.0)
            assert v == pytest.approx(f(x, 0.0), abs=1e-12)

    def test_matches_general_curvilinear_operator(self):
        # independent path: the disk as a curvilinear domain between two arcs
        dom = CurvilinearDomain(
            -1.0,
            1.0,
            lambda x: -math.sqrt(max(1 - x * x, 0.0)),
            lambda x: math.sqrt(max(1 - x * x, 0.0)),
        )
        f = lambda a, b: a * math.sin(5 * a - 6 * b) + b
        n = 10
        for x, y in random_disk_points(6):
            if abs(x) > 0.999:
                continue
            general = stancu(f, dom, n, NodeSchedule.constant(n), x, y)
            fast = ball_stancu(f, n, NodeSchedule.constant(n), x, y)
            assert fast == pytest.approx(general, abs=1e-11)

    def test_outside_disk_raises(self):
        with pytest.raises(ValueError):
            ball_stancu(lambda a, b: 1.0, 3, NodeSchedule.constant(3), 0.9, 0.9)


class TestQuadrantOperators:
    def test_node_table_shape_and_corner_values(self):
        f = lambda x, y: x + y
        table = quadrant_node_table(f, 4, Quadrant.B1)
        assert table.shape == (5, 5)
        assert table[4, 0] == pytest.approx(f(1.0, 0.0))
        assert table[0, 4] == pytest.approx(f(0.0, 1.0))

    def test_reproduces_constants(self):
        for q in Quadrant:
            for x, y in random_disk_points(4, q):
                assert quadrant_stancu(lambda a, b: 7.0, q, 8, x, y) == pytest.approx(
                    7.0, abs=1e-12
                )

    def test_corner_interpolation(self):
        f = lambda x, y: math.exp(x) - y
        for q in Quadrant:
            assert quadrant_stancu(f, q, 6, q.sx * 1.0, 0.0) == pytest.approx(
                f(q.sx, 0.0), abs=1e-12
            )
            assert quadrant_stancu(f, q, 6, 0.0, q.sy * 1.0) == pytest.approx(
                f(0.0, q.sy), abs=1e-12
            )
            assert quadrant_stancu(f, q, 6, 0.0, 0.0) == pytest.approx(f(0.0, 0.0), abs=1e-12)

    def test_closed_form_equals_transform_path(self):
        # the two constructions must agree to near machine precision
        for f in SMOOTH_FUNCTIONS:
            for q in Quadrant:
                for n in (1, 2, 5, 12):
                    for x, y in random_disk_points(4, q):
                        closed = quadrant_bernstein_type(f, q, n, x, y)
                        transform = quadrant_bernstein_type_via_transforms(f, q, n, x, y)
                        assert closed == pytest.approx(transform, abs=1e-10)

    def test_both_entry_points_agree(self):
        f = SMOOTH_FUNCTIONS[2]
        for q in Quadrant:
            for x, y in random_disk_points(3, q):
                assert quadrant_stancu(f, q, 7, x, y) == quadrant_bernstein_type(f, q, 7, x, y)

    def test_rim_evaluation_total(self):
        f = lambda x, y: x * y + 1.0
        for theta in (0.1, 0.7, 1.2):
            x, y = math.cos(theta), math.sin(theta)
            r2 = x * x + y * y
            if r2 > 1.0:  # keep strictly inside the closed disk
                x, y = x / math.sqrt(r2), y / math.sqrt(r2)
            v = quadrant_stancu(f, Quadrant.B1, 10, x, y)
            assert math.isfinite(v)

    def test_wrong_quadrant_raises(self):
        with pytest.raises(ValueError):
            quadrant_stancu(lambda a, b: 1.0, Quadrant.B1, 3, -0.5, 0.5)
        with pytest.raises(ValueError, match="not in quadrant B1"):
            quadrant_bernstein_type_via_transforms(lambda a, b: 1.0, Quadrant.B1, 3, -0.5, 0.5)

    def test_quadrant_holds_no_point_outside_the_disk(self):
        for q in Quadrant:
            assert q.contains(q.sx * 0.6, q.sy * 0.8)
            assert not q.contains(q.sx * 0.8, q.sy * 0.8)
            assert not q.contains(q.sx * (1.0 + 1e-8), 0.0)

    @pytest.mark.parametrize("x", [1.0, -1.0, 1.0 + 1e-10, -1.0 - 1e-10])
    def test_transform_path_on_the_rim(self, x):
        # the chord at x has no width, and the one weighted row has n_k = 0:
        # both paths give the limit f(sign(x), 0) exactly
        f = SMOOTH_FUNCTIONS[2]
        for q in Quadrant:
            for y in (0.0, -0.0):
                if q.contains(x, y):
                    value = quadrant_bernstein_type_via_transforms(f, q, 7, x, y)
                    assert value == quadrant_stancu(f, q, 7, x, y) == f(math.copysign(1.0, x), 0.0)

    @pytest.mark.parametrize("n, message", [(0, "n must be >= 1"), (2.5, "n must be an integer")])
    def test_transform_path_rejects_a_bad_degree(self, n, message):
        with pytest.raises(ValueError, match=message):
            quadrant_bernstein_type_via_transforms(lambda a, b: 1.0, Quadrant.B2, n, -0.5, 0.5)

    @pytest.mark.parametrize("q", ["B1", None, 1])
    def test_a_quadrant_that_is_no_quadrant_raises_before_f(self, q):
        calls = []
        f = lambda a, b: calls.append((a, b)) or 1.0
        for call in (lambda: quadrant_stancu(f, q, 3, 0.1, 0.1),
                     lambda: quadrant_bernstein_type(f, q, 3, 0.1, 0.1),
                     lambda: quadrant_bernstein_type_via_transforms(f, q, 3, 0.1, 0.1),
                     lambda: quadrant_node_table(f, 3, q)):
            with pytest.raises(ValueError, match=rf"q must be a Quadrant, got {q!r}"):
                call()
        assert calls == []


class TestPiecewise:
    def test_dispatch_matches_quadrant_values(self):
        f = SMOOTH_FUNCTIONS[3]
        for x, y in random_disk_points(8):
            v = piecewise_stancu_disk(f, 9, x, y)
            q = next(qq for qq in Quadrant if qq.sx * x >= 0 and qq.sy * y >= 0)
            assert v == pytest.approx(quadrant_stancu(f, q, 9, x, y), abs=1e-12)

    def test_two_piecewise_variants_identical(self):
        f = SMOOTH_FUNCTIONS[2]
        for x, y in random_disk_points(6):
            assert piecewise_stancu_disk(f, 8, x, y) == piecewise_bernstein_type_disk(f, 8, x, y)

    def test_axis_continuity_smooth_and_discontinuous(self):
        step = lambda x, y: 1.0 if x * x + y * y < 0.5 else 0.0
        for which in ("stancu", "bernstein-type"):
            for f in (SMOOTH_FUNCTIONS[2], step):
                assert axis_continuity_check(which, f, 20, samples=16) <= 1e-10

    @pytest.mark.parametrize("samples", [0, -4, 2.5, "3", True])
    def test_axis_check_rejects_bad_samples(self, samples):
        with pytest.raises(ValueError, match="samples"):
            axis_continuity_check("stancu", SMOOTH_FUNCTIONS[2], 5, samples=samples)

    def test_axis_check_rejects_an_unknown_construction(self):
        with pytest.raises(ValueError, match="unknown construction 'nope'"):
            axis_continuity_check("nope", SMOOTH_FUNCTIONS[2], 3)

    def test_outside_disk_raises(self):
        with pytest.raises(ValueError):
            piecewise_stancu_disk(lambda a, b: 1.0, 3, 0.9, 0.9)

    @pytest.mark.parametrize("pt", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, math.nan)])
    def test_non_finite_point_raises(self, pt):
        with pytest.raises(ValueError, match="not finite"):
            piecewise_stancu_disk(lambda a, b: 1.0, 3, *pt)
        with pytest.raises(ValueError, match="not finite"):
            ball_stancu(lambda a, b: 1.0, 3, NodeSchedule.constant(3), *pt)

    def test_origin_and_axes_well_defined(self):
        f = lambda x, y: math.cos(x + y)
        for pt in ((0.0, 0.0), (0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5)):
            assert math.isfinite(piecewise_stancu_disk(f, 6, *pt))

    def test_convergence_on_smooth_function(self):
        f = SMOOTH_FUNCTIONS[2]
        x, y = 0.3, -0.4
        errors = [abs(piecewise_stancu_disk(f, n, x, y) - f(x, y)) for n in (5, 20, 80)]
        assert errors[2] < errors[0]
        assert errors[2] < 0.05
