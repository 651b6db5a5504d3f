"""Bivariate operator tests on curvilinear domains."""

import math
import warnings

import numpy as np
import pytest

from diskbern.bivariate import (
    CurvilinearDomain,
    NodeSchedule,
    UNIT_SQUARE,
    lift,
    monomial_image,
    stancu,
    stancu_determinant,
    stancu_nodes,
    voronovskaja_probe,
)

RNG = np.random.default_rng(20240818)


def wavy_domain():
    return CurvilinearDomain(
        -1.0,
        2.0,
        lambda x: -1.0 + 0.2 * math.sin(2 * x),
        lambda x: 1.0 + 0.3 * math.cos(x),
    )


def lens_domain():
    # degenerate at both ends, like a vertical-chord parameterized disk
    return CurvilinearDomain(
        -1.0, 1.0, lambda x: -math.sqrt(max(1 - x * x, 0.0)), lambda x: math.sqrt(max(1 - x * x, 0.0))
    )


def random_interior_points(dom, count):
    pts = []
    while len(pts) < count:
        x = float(RNG.uniform(dom.a, dom.b))
        lo, hi = dom.phi1(x), dom.phi2(x)
        if hi - lo <= 1e-9:
            continue
        pts.append((x, float(RNG.uniform(lo, hi))))
    return pts


class TestDomain:
    def test_validation_rejects_crossing_curves(self):
        with pytest.raises(ValueError):
            CurvilinearDomain(0.0, 1.0, lambda x: x, lambda x: 1.0 - x)

    def test_validation_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            CurvilinearDomain(1.0, 0.0, lambda x: 0.0, lambda x: 1.0)

    def test_degenerate_edges_flagged(self):
        dom = lens_domain()
        assert dom.degenerate_left and dom.degenerate_right
        assert not UNIT_SQUARE.degenerate_left

    def test_contains(self):
        dom = wavy_domain()
        assert dom.contains(0.5, 0.0)
        assert not dom.contains(3.0, 0.0)
        assert not dom.contains(0.5, 5.0)


class TestNodeSchedule:
    def test_counts(self):
        n = 6
        assert list(NodeSchedule.constant(4).counts(n)) == [4] * 7
        # both substitute n_k = 1 for the n_k = 0 at one end, and say so
        with pytest.warns(UserWarning, match="'n-minus-k' yields n_k=0"):
            assert list(NodeSchedule.n_minus_k().counts(n)) == [6, 5, 4, 3, 2, 1, 1]
        with pytest.warns(UserWarning, match="'k' yields n_k=0"):
            assert list(NodeSchedule.k_index().counts(n)) == [1, 1, 2, 3, 4, 5, 6]

    def test_clipping_warns(self):
        with pytest.warns(UserWarning):
            NodeSchedule.n_minus_k().counts(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            NodeSchedule.constant(2).counts(3)  # no warning expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            NodeSchedule("constant")
        with pytest.raises(ValueError):
            NodeSchedule("n-minus-k", m=3)
        with pytest.raises(ValueError):
            NodeSchedule("weird")


class TestStancuBasics:
    def test_reproduces_constants(self):
        for dom in (UNIT_SQUARE, wavy_domain(), lens_domain()):
            for sched in (NodeSchedule.constant(5), NodeSchedule.n_minus_k()):
                for x, y in random_interior_points(dom, 4):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        v = stancu(lambda a, b: 3.25, dom, 7, sched, x, y)
                    assert v == pytest.approx(3.25, abs=1e-12)

    def test_reproduces_x(self):
        dom = wavy_domain()
        for x, y in random_interior_points(dom, 6):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                v = stancu(lambda a, b: a, dom, 9, NodeSchedule.n_minus_k(), x, y)
            assert v == pytest.approx(x, abs=1e-11)

    def test_square_quadratic(self):
        for n in (4, 9):
            for x, y in random_interior_points(UNIT_SQUARE, 4):
                v = stancu(lambda a, b: a * a, UNIT_SQUARE, n, NodeSchedule.constant(n), x, y)
                assert v == pytest.approx(x * x + x * (1 - x) / n, abs=1e-12)

    def test_tensor_square_known_value(self):
        v = stancu(lambda a, b: a * b, UNIT_SQUARE, 4, NodeSchedule.constant(4), 0.3, 0.7)
        assert v == pytest.approx(0.21, abs=1e-13)

    def test_outside_domain_raises(self):
        with pytest.raises(ValueError):
            stancu(lambda a, b: 1.0, UNIT_SQUARE, 3, NodeSchedule.constant(3), 1.5, 0.5)

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            stancu(lambda a, b: 1.0, UNIT_SQUARE, 0, NodeSchedule.constant(3), 0.5, 0.5)

    def test_converges_to_smooth_function(self):
        dom = wavy_domain()
        f = lambda a, b: math.sin(a) * math.cos(b)
        x, y = 0.4, 0.1
        errors = []
        for n in (4, 8, 16, 32):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                errors.append(abs(stancu(f, dom, n, NodeSchedule.n_minus_k(), x, y) - f(x, y)))
        assert errors[-1] < errors[0]
        assert errors[-1] < 0.05


class TestNodes:
    def test_node_counts(self):
        nodes = stancu_nodes(UNIT_SQUARE, 5, NodeSchedule.constant(5))
        assert nodes.node_count == 36
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tri = stancu_nodes(UNIT_SQUARE, 5, NodeSchedule.n_minus_k())
        # n_k = 5,4,3,2,1,1 after clipping -> rows of n_k+1 values
        assert tri.node_count == sum(c + 1 for c in (5, 4, 3, 2, 1, 1))

    def test_nodes_lie_in_domain(self):
        dom = wavy_domain()
        nodes = stancu_nodes(dom, 8, NodeSchedule.constant(6))
        for x, y in nodes.points():
            assert dom.contains(float(x), float(y), tol=1e-9)

    def test_lift_roundtrip(self):
        dom = wavy_domain()
        F = lift(lambda a, b: a + 2 * b, dom)
        # corners of the unit square map to the domain corners
        assert F(0.0, 0.0) == pytest.approx(dom.a + 2 * dom.phi1(dom.a), abs=1e-12)
        assert F(1.0, 1.0) == pytest.approx(dom.b + 2 * dom.phi2(dom.b), abs=1e-12)


class TestDeterminantRepresentation:
    def test_matches_direct_evaluation(self):
        dom = wavy_domain()
        functions = [
            lambda a, b: 1.0,
            lambda a, b: a * b,
            lambda a, b: math.sin(a + b),
            lambda a, b: math.exp(0.3 * a) - b,
        ]
        for n in (1, 2, 3, 4):
            for f in functions:
                for x, y in random_interior_points(dom, 2):
                    sched = NodeSchedule.constant(n)
                    direct = stancu(f, dom, n, sched, x, y)
                    det = stancu_determinant(f, dom, n, sched, x, y)
                    assert det == pytest.approx(direct, abs=1e-9)

    def test_matches_on_unit_square_exact_case(self):
        v = stancu_determinant(
            lambda a, b: a * b, UNIT_SQUARE, 3, NodeSchedule.constant(3), 0.3, 0.7
        )
        assert v == pytest.approx(0.21, abs=1e-12)


class TestMonomialImages:
    def test_trivial_images(self):
        dom = wavy_domain()
        sched = NodeSchedule.n_minus_k()
        for x, y in random_interior_points(dom, 3):
            assert monomial_image("1", dom, 6, sched, x, y) == 1.0
            assert monomial_image("x", dom, 6, sched, x, y) == x

    def test_x2_image(self):
        dom = wavy_domain()
        sched = NodeSchedule.n_minus_k()
        for n in (3, 7):
            for x, y in random_interior_points(dom, 3):
                expected = x * x + (x - dom.a) * (dom.b - x) / n
                assert monomial_image("x2", dom, n, sched, x, y) == pytest.approx(
                    expected, abs=1e-12
                )

    @pytest.mark.parametrize("which", ["y", "xy", "y2"])
    def test_against_direct_operator(self, which):
        dom = wavy_domain()
        target = {
            "y": lambda a, b: b,
            "xy": lambda a, b: a * b,
            "y2": lambda a, b: b * b,
        }[which]
        for sched in (NodeSchedule.n_minus_k(), NodeSchedule.k_index()):
            for n in (4, 9):
                for x, y in random_interior_points(dom, 3):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        direct = stancu(target, dom, n, sched, x, y)
                        closed = monomial_image(which, dom, n, sched, x, y)
                    assert closed == pytest.approx(direct, abs=1e-10)

    def test_y2_requires_triangular_schedule(self):
        with pytest.raises(ValueError):
            monomial_image("y2", UNIT_SQUARE, 4, NodeSchedule.constant(4), 0.5, 0.5)

    def test_unknown_monomial(self):
        with pytest.raises(ValueError):
            monomial_image("x3", UNIT_SQUARE, 4, NodeSchedule.n_minus_k(), 0.5, 0.5)


class TestVoronovskaja:
    def test_square_quadratic_exact_rate(self):
        for n in (5, 12, 40):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                (_, _, scaled), = voronovskaja_probe(
                    lambda a, b: a * a, UNIT_SQUARE, (0.5, 0.3), [n]
                )
            assert scaled == pytest.approx(0.25, abs=1e-10)

    def test_scaled_residual_bounded_for_smooth(self):
        f = lambda a, b: math.exp(a * a - b * b) - a * b
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            probes = voronovskaja_probe(f, UNIT_SQUARE, (0.3, 0.4), [10, 20, 40, 80])
        scaled = [abs(s) for (_, _, s) in probes]
        assert max(scaled) / min(scaled) < 3.0
