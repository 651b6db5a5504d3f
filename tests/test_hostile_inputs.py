"""Input that cannot be evaluated fails with a ValueError that names the
argument, before f is called, and never becomes a plausible number; so does
a value of f that is not a real number."""

import numpy as np
import pytest

from diskbern import bivariate as biv, disk, experiments as ex, univariate as uv
from diskbern.bivariate import NodeSchedule


def never_called(x, y):
    raise AssertionError("f was called")


BOOL_COORDINATES = {
    "basis_row": lambda b: uv.basis_row(3, b),
    "basis_classical": lambda b: uv.basis_classical(3, 1, b),
    "basis_shifted_row": lambda b: uv.basis_shifted_row(3, b, uv.UNIT_INTERVAL),
    "bernstein": lambda b: uv.bernstein(lambda t: t, 3, b),
    "ball_stancu": lambda b: disk.ball_stancu(never_called, 5, NodeSchedule.constant(5), b, 0.0),
    "piecewise_stancu_disk": lambda b: disk.piecewise_stancu_disk(never_called, 5, b, 0.0),
    "quadrant_stancu": lambda b: disk.quadrant_stancu(never_called, disk.Quadrant.B1, 5, b, 0.0),
    "square_bernstein": lambda b: disk.square_bernstein(never_called, 3, NodeSchedule.constant(3),
                                                        b, 0.0),
    "stancu": lambda b: biv.stancu(never_called, biv.UNIT_SQUARE, 3, NodeSchedule.constant(3),
                                   b, 0.0),
}


@pytest.mark.parametrize("b", [True, False, np.True_, np.False_], ids=repr)
@pytest.mark.parametrize("name", list(BOOL_COORDINATES))
def test_a_bool_coordinate_raises_naming_x(name, b):
    with pytest.raises(ValueError, match=f"^x must be a number, got {b!r}$"):
        BOOL_COORDINATES[name](b)


@pytest.mark.parametrize("b", [True, np.False_], ids=repr)
def test_a_bool_y_raises_naming_y(b):
    with pytest.raises(ValueError, match="^y must be a number"):
        disk.check_disk_point(0.0, b)
    with pytest.raises(ValueError, match="^y must be a number"):
        biv.stancu(never_called, biv.UNIT_SQUARE, 3, NodeSchedule.constant(3), 0.5, b)


@pytest.mark.parametrize("point, message", [((True, 0.1), "^x must be a number"),
                                            ((np.nan, 0.1), r"^point \(nan, 0.1\) is not finite"),
                                            ((2.0, 0.0), "outside the domain")], ids=repr)
def test_voronovskaja_probe_checks_its_point_before_calling_f(point, message):
    with pytest.raises(ValueError, match=message):
        biv.voronovskaja_probe(never_called, biv.UNIT_SQUARE, point, [3])


@pytest.mark.parametrize("pts", [[(True, False)], np.array([[True, False]]), [(0.1, np.True_)],
                                 ((0.0, 0.2), (False, 0.1)), (True, 0.0),
                                 [np.array([0.1, 0.2]), np.array([np.False_, 0.0], dtype=object)]],
                         ids=["list", "bool-array", "numpy-bool", "tuple", "pair", "object-row"])
@pytest.mark.parametrize("kind", ["Cbar", "Bstancu"])
def test_a_bool_point_coordinate_raises_naming_the_points(kind, pts):
    with pytest.raises(ValueError, match="^points must be numbers, got a bool coordinate$"):
        ex.disk_operator(kind, 5)(never_called, pts)


def test_a_bool_interval_endpoint_raises_naming_it():
    with pytest.raises(ValueError, match="^alpha must be a number, got True$"):
        uv.Interval(True, 2)
    with pytest.raises(ValueError, match="^beta must be a number, got np.True_$"):
        uv.Interval(0.0, np.True_)


def test_numbers_of_every_kind_stay_coordinates():
    assert uv.basis_row(3, 1).tobytes() == uv.basis_row(3, 1.0).tobytes()
    op, f = ex.disk_operator("Cbar", 5), ex.builtin(1)
    expected = op(f, np.array([[1.0, 0.0], [0.25, -0.5]])).tobytes()
    for pts in ([(1, 0), (0.25, -0.5)], [(np.int64(1), np.float32(0.0)), (0.25, -0.5)],
                np.array([[1, 0], [0.25, -0.5]], dtype=object)):
        assert op(f, pts).tobytes() == expected
    assert uv.basis_row(3, np.float64(0.25)).tobytes() == uv.basis_row(3, 0.25).tobytes()
    assert uv.Interval(np.int64(0), 2).width == 2


@pytest.mark.parametrize("segment", [((0, 0), (1,)), ((0, 0),), (0, 1), None, ((0, 0), (1, 0, 0))],
                         ids=repr)
def test_a_malformed_segment_raises_naming_segment(segment):
    with pytest.raises(ValueError, match="^segment must be two"):
        ex.cross_section("Cbar", never_called, [3], segment=segment)


# ---------------------------------------------------------------------------
# what an undeclared f returns

def returning(value):
    """An undeclared f that returns value everywhere."""
    return lambda x, y: value


F_CALLERS = {
    "Cbar": lambda f: ex.disk_operator("Cbar", 3)(f, [(0.5, 0.25)]),
    "Bstancu": lambda f: ex.disk_operator("Bstancu", 3)(f, [(0.5, 0.25)]),
    "rmse": lambda f: ex.rmse(f, ex.disk_operator("Cbar", 2), ex.mesh_quadrant_disk(2)),
    "cross_section": lambda f: ex.cross_section("Bbar", f, [2], samples=3),
    "piecewise_stancu_disk": lambda f: disk.piecewise_stancu_disk(f, 3, 0.5, 0.25),
    "ball_stancu": lambda f: disk.ball_stancu(f, 3, NodeSchedule.constant(3), 0.5, 0.25),
    "stancu": lambda f: biv.stancu(f, biv.UNIT_SQUARE, 3, NodeSchedule.constant(3), 0.5, 0.25),
}


@pytest.mark.parametrize("value, kind", [(None, "NoneType"), ("1.5", "str"), (1 + 2j, "complex"),
                                         (np.complex128(1.0), "complex128"), (True, "bool"),
                                         (np.False_, "bool")], ids=repr)
@pytest.mark.parametrize("caller", list(F_CALLERS))
def test_a_value_that_is_not_a_real_number_raises_naming_the_point_and_its_type(caller, value,
                                                                                 kind):
    with pytest.raises(ValueError, match=rf"^f\(\S+, \S+\) returned {kind} .*, not a real number$"):
        F_CALLERS[caller](returning(value))


def test_the_first_point_with_a_non_real_value_is_named():
    f = lambda x, y: None if x > 0.0 else x  # the chord nodes of n = 4, in order of x
    with pytest.raises(ValueError, match=r"^f\(0\.5, -0\.866\d*\) returned NoneType None"):
        ex.disk_operator("Bstancu", 4)(f, [(0.1, 0.2)])


@pytest.mark.parametrize("value", [2, 2.0, np.float32(2.0), np.int64(2), np.float64(2.0)],
                         ids=repr)
@pytest.mark.parametrize("caller", list(F_CALLERS))
def test_real_numbers_of_every_kind_are_values(caller, value):
    assert F_CALLERS[caller](returning(value)) == F_CALLERS[caller](returning(2.0))
