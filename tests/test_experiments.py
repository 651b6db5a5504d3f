"""Meshes, batch evaluation, RMSE statistics, and reporting."""

import dataclasses
import math
import re

import numpy as np
import pytest

from diskbern.disk import ball_stancu, piecewise_stancu_disk
from diskbern.bivariate import NodeSchedule
from diskbern import experiments as ex

RNG = np.random.default_rng(20240820)


def random_disk_points(count):
    pts = []
    while len(pts) < count:
        x, y = RNG.uniform(-1, 1, 2)
        if x * x + y * y <= 1.0:
            pts.append((float(x), float(y)))
    return np.array(pts)


class TestBuiltins:
    def test_lookup_by_id_and_name(self):
        assert ex.builtin(1) is ex.BUILTINS["example1"]
        assert ex.builtin("example3") is ex.BUILTINS["example3"]

    def test_unknown(self):
        with pytest.raises(ValueError):
            ex.builtin(9)

    def test_numpy_integer_id(self):
        assert ex.builtin(np.int64(1)) is ex.builtin(np.int32(1)) is ex.BUILTINS["example1"]

    @pytest.mark.parametrize("bad", [[1], 1.0, True, 0], ids=repr)
    def test_an_id_that_is_no_integer_or_name(self, bad):
        with pytest.raises(ValueError, match="unknown built-in function"):
            ex.builtin(bad)

    def test_two_numbers_give_a_number(self):
        for e in (1, 2, 4):
            assert type(ex.builtin(e)(0.1, 0.2)) is np.float64

    def test_step_function_values(self):
        eta = ex.builtin(4)
        assert eta(0.0, 0.0) == 1.0
        assert eta(0.6, 0.4) == 0.0  # r^2 = 0.52
        assert eta(0.9, 0.3) == 0.5  # r^2 = 0.9
        assert eta(0.5, 0.5) == 0.0  # boundary r^2 = 0.5 belongs to the plateau

    def test_smooth_formulas(self):
        assert ex.builtin(1)(0.2, -0.1) == pytest.approx(
            0.2 * math.sin(5 * 0.2 + 6 * 0.1) - 0.1
        )
        assert ex.builtin(2)(0.1, 0.3) == pytest.approx(math.sin(1.3))
        assert ex.builtin(3)(0.3, 0.4) == pytest.approx(math.exp(0.09 - 0.16) - 0.12)


class TestMeshes:
    @pytest.mark.parametrize("n", [1, 5, 15, 80])
    def test_chord_mesh_cardinality(self, n):
        mesh = ex.mesh_stancu_disk(n)
        assert len(mesh.points) == (n + 1) ** 2
        assert mesh.nominal_size == (n + 1) ** 2

    @pytest.mark.parametrize("n", [1, 5, 15, 80])
    def test_quadrant_mesh_cardinalities(self, n):
        raw = ex.mesh_quadrant_disk(n, dedup=False)
        deduped = ex.mesh_quadrant_disk(n, dedup=True)
        assert len(raw.points) == 2 * (n + 1) * (n + 2)
        assert len(deduped.points) == 2 * n * (n + 1) + 1
        assert deduped.nominal_size == 2 * n * (n + 1)

    def test_all_points_inside_closed_disk(self):
        for mesh in (ex.mesh_stancu_disk(12), ex.mesh_quadrant_disk(12)):
            r2 = mesh.points[:, 0] ** 2 + mesh.points[:, 1] ** 2
            assert np.all(r2 <= 1.0 + 1e-12)

    def test_chord_mesh_coordinates(self):
        mesh = ex.mesh_stancu_disk(2)
        # k=1 column: x=0, chord endpoints at +-1
        col = {tuple(p) for p, (k, j) in zip(map(tuple, mesh.points), mesh.labels) if k == 1}
        assert (0.0, 1.0) in col and (0.0, -1.0) in col and (0.0, 0.0) in col

    def test_quadrant_mesh_dedup_has_no_duplicates(self):
        mesh = ex.mesh_quadrant_disk(7)
        assert len({tuple(p) for p in mesh.points}) == len(mesh.points)

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            ex.mesh_stancu_disk(0)

    @pytest.mark.parametrize("kind, n, dedup, message", [
        ("nope", 3, True, "unknown mesh kind 'nope'"),
        (["quadrant"], 3, True, r"unknown mesh kind \['quadrant'\]"),
        ("quadrant", 2.5, True, "n must be an integer, got 2.5"),
        ("quadrant", 0, True, "n must be >= 1"),
        ("stancu", True, False, "n must be an integer, got True"),
        ("quadrant", 3, 1, "dedup must be a bool"),
        ("quadrant", 3, None, "dedup must be a bool"),
        ("stancu", 3, True, "False for the chord mesh"),
    ], ids=["kind", "unhashable-kind", "float-n", "zero-n", "bool-n", "int-dedup", "none-dedup",
            "chord-dedup"])
    def test_mesh_spec_checks_its_fields(self, kind, n, dedup, message):
        with pytest.raises(ValueError, match=message):
            ex.MeshSpec(kind, n, dedup, np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(ex.mesh_quadrant_disk(3), kind=kind, n=n, dedup=dedup)

    def test_mesh_spec_stores_n_as_an_int(self):
        mesh = ex.MeshSpec("quadrant", np.int64(3), False, np.array([[0.5, 0.5]]))
        assert type(mesh.n) is int and mesh.nominal_size == 24


class TestBatchEvaluation:
    def test_chord_batch_matches_scalar(self):
        f = ex.builtin(1)
        n = 9
        pts = random_disk_points(12)
        batch = ex.disk_operator("Bstancu", n)(f, pts)
        for (x, y), v in zip(pts, batch):
            assert v == pytest.approx(
                ball_stancu(f, n, NodeSchedule.constant(n), x, y), abs=1e-11
            )

    def test_piecewise_batch_matches_scalar(self):
        f = ex.builtin(3)
        n = 9
        pts = np.vstack(
            [random_disk_points(12), [(0.0, 0.0), (0.5, 0.0), (0.0, -0.5), (-0.5, 0.0)]]
        )
        batch = ex.disk_operator("Cbar", n)(f, pts)
        for (x, y), v in zip(pts, batch):
            assert v == pytest.approx(piecewise_stancu_disk(f, n, x, y), abs=1e-11)

    def test_thread_count_does_not_change_bits(self):
        f = ex.builtin(2)
        pts = ex.mesh_quadrant_disk(20).points
        op = ex.disk_operator("Cbar", 20)
        a = op(f, pts, threads=1)
        b = op(f, pts, threads=7)
        assert np.array_equal(a, b)

    def test_cbar_and_bbar_aliases_agree(self):
        f = ex.builtin(1)
        pts = random_disk_points(5)
        a = ex.disk_operator("Cbar", 6)(f, pts)
        b = ex.disk_operator("Bbar", 6)(f, pts)
        assert np.array_equal(a, b)

    def test_point_outside_disk_rejected(self):
        # a coordinate whose square overflows is outside too, with no overflow warning;
        # the first point outside is the one named
        for kind in ("Cbar", "Bstancu"):
            for bad in [(0.9, 0.9), (1e200, 0.0), (0.0, -1e300)]:
                with pytest.raises(ValueError, match="mesh point index 0 outside the unit disk"):
                    ex.disk_operator(kind, 4)(ex.builtin(1), [bad, (0.1, 0.2), (2.0, 0.0)])

    @pytest.mark.parametrize("kind", ["Cbar", "Bstancu"])
    @pytest.mark.parametrize("bad", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)])
    def test_non_finite_point_rejected(self, kind, bad):
        with pytest.raises(ValueError, match="index 1 is not finite"):
            ex.disk_operator(kind, 4)(ex.builtin(1), [(0.1, 0.2), bad])

    @pytest.mark.parametrize("kind", ["Cbar", "Bstancu"])
    @pytest.mark.parametrize("empty", [[], np.empty((0, 2))])
    def test_empty_input_gives_empty_output(self, kind, empty):
        values = ex.disk_operator(kind, 4)(ex.builtin(1), empty)
        assert values.shape == (0,)

    def test_single_pair_is_one_point(self):
        op = ex.disk_operator("Cbar", 4)
        assert np.array_equal(op(ex.builtin(1), (0.3, 0.1)), op(ex.builtin(1), [(0.3, 0.1)]))

    @pytest.mark.parametrize("kind", ["Cbar", "Bstancu"])
    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 3)), np.zeros((1, 2, 2))])
    def test_wrong_shape_rejected(self, kind, bad):
        with pytest.raises(ValueError, match="shape"):
            ex.disk_operator(kind, 4)(ex.builtin(1), bad)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ex.disk_operator("nope", 4)


class TestNonFiniteF:
    @pytest.mark.parametrize("kind", ["Cbar", "Bstancu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_node_value_rejected(self, kind, value):
        # f is finite at the evaluation point but not at the nodes x > 0.5
        f = lambda x, y: value if x > 0.5 else x * y
        with pytest.raises(ValueError, match="is not finite"):
            ex.disk_operator(kind, 6)(f, [(0.1, 0.2)])

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_mesh_sample_rejected(self, value):
        # one bad point in the second block of samples
        mesh = ex.mesh_stancu_disk(30)
        bad = tuple(mesh.points[700].tolist())
        f = lambda x, y: value if (x, y) == bad else 1.0
        with pytest.raises(ValueError, match=re.escape(f"f{bad} = {value} is not finite")):
            ex.rmse(f, ex.disk_operator("Bstancu", 30), mesh)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_section_sample_rejected(self, value):
        # (1/3, 0) is a sample of the section but no node of the n = 4 operator
        f = lambda x, y: value if abs(x - 1 / 3) < 1e-9 else 1.0
        with pytest.raises(ValueError, match="is not finite"):
            ex.cross_section("Cbar", f, [4], samples=4)


class TestRmse:
    def test_zero_for_reproduced_function(self):
        # linear functions are reproduced by the chord-mesh operator
        f = lambda x, y: 0.5 * x
        mesh = ex.mesh_stancu_disk(8)
        val = ex.rmse(f, ex.disk_operator("Bstancu", 8), mesh)
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_denominator_conventions(self):
        f = ex.builtin(1)
        mesh = ex.mesh_quadrant_disk(6)
        op = ex.disk_operator("Cbar", 6)
        nominal = ex.rmse(f, op, mesh, denominator="nominal")
        actual = ex.rmse(f, op, mesh, denominator="actual")
        # same sum of squares; denominators are 2n(n+1) = 84 and 2n(n+1)+1 = 85
        assert nominal / actual == pytest.approx(math.sqrt(85 / 84), rel=1e-12)

    def test_run_example_shapes(self):
        rc, rb = ex.run_example(1, n_list=[3, 5])
        assert [n for n, _ in rc.entries] == [3, 5]
        assert [n for n, _ in rb.entries] == [3, 5]
        assert all(v > 0 for _, v in rc.entries)

    @pytest.mark.parametrize("kind", ["Cbar", "Bstancu"])
    @pytest.mark.parametrize("bad, message", [((0.5, math.nan), "is not finite"),
                                              ((1.5, 0.0), "outside the unit disk")])
    def test_bad_mesh_point_raises_before_f_is_called(self, kind, bad, message):
        mesh = ex.mesh_stancu_disk(20)
        points = mesh.points.copy()
        points[-1] = bad
        calls = []
        f = lambda x, y: calls.append((x, y)) or 1.0
        with pytest.raises(ValueError, match=f"mesh point index 440 {message}"):
            ex.rmse(f, ex.disk_operator(kind, 20), dataclasses.replace(mesh, points=points))
        assert calls == []

    @pytest.mark.parametrize("example, n_list, message", [
        (1, [15], r"example 1 at n = \[15\]"),
        (1, [10, 15, 20, 90], r"example 1 at n = \[15, 90\]"),
        ("example1", [10], "example 'example1' at n = \\[10\\]"),
        (5, [10], "unknown built-in function 5"),
        (1, [10.0], "n must be an integer"),
    ], ids=["one-n", "two-n", "named-example", "unknown-example", "float-n"])
    def test_reference_report_checks_every_cell_before_any_work(self, example, n_list, message,
                                                                monkeypatch):
        monkeypatch.setattr(ex, "_cells", lambda *a: pytest.fail("a cell was computed"))
        with pytest.raises(ValueError, match=message):
            ex.reference_report(example, n_list)

    def test_reference_report_structure(self):
        cells = ex.reference_report(1, n_list=[10])
        assert len(cells) == 2
        for cell in cells:
            assert cell.reference > 0
            assert cell.computed > 0
            assert cell.computed_alt > 0
            assert cell.rel_error >= 0


class TestCrossSection:
    def test_rows_and_interpolation_columns(self):
        rows = ex.cross_section("Cbar", ex.builtin(1), [4, 8], samples=21)
        assert len(rows) == 21
        assert len(rows[0]) == 4 + 2
        # s runs 0..1 along the default diameter
        assert rows[0][1] == pytest.approx(-1.0)
        assert rows[-1][1] == pytest.approx(1.0)

    def test_degenerate_segment_rejected(self):
        with pytest.raises(ValueError):
            ex.cross_section("Cbar", ex.builtin(1), [4], segment=((0, 0), (0, 0)))

    @pytest.mark.parametrize("samples", [0, -4, 2.5, "3", True])
    def test_non_positive_samples_rejected(self, samples):
        with pytest.raises(ValueError, match="samples"):
            ex.cross_section("Cbar", ex.builtin(1), [4], samples=samples)

    def test_segment_outside_disk_rejected(self):
        with pytest.raises(ValueError):
            ex.cross_section("Cbar", ex.builtin(1), [4], segment=((0, 0), (2, 0)))
