"""No settable value without a caller: the point-check tolerances and the
validation grids are module constants, a mesh's nominal size follows from
its kind and n, and an RMSE cell is one DiskOperator call on its MeshSpec."""

import dataclasses
import inspect

import pytest

from diskbern import bivariate as biv
from diskbern import disk
from diskbern import experiments as ex
from diskbern import univariate as uni

FIXED = [disk.check_disk_point, disk.Quadrant.contains, uni.Interval.contains,
         biv.CurvilinearDomain.contains, biv.CurvilinearDomain, uni.validate_transform,
         uni.Transform1D.validate]


@pytest.mark.parametrize("fn", FIXED, ids=lambda fn: fn.__qualname__)
def test_no_tolerance_or_grid_size_can_be_set(fn):
    assert not {"tol", "grid_size"} & set(inspect.signature(fn).parameters)


def test_the_constants_hold_the_values_they_replaced():
    assert (uni._EPS, uni._SLACK, uni._GRID) == (1e-12, 1e-9, 1024)


def test_nominal_size_follows_from_kind_and_n():
    assert [f.name for f in dataclasses.fields(ex.MeshSpec)] == ["kind", "n", "dedup", "points"]
    assert isinstance(inspect.getattr_static(ex.MeshSpec, "nominal_size"), property)
    for n in (1, 7, 80):
        assert ex.mesh_stancu_disk(n).nominal_size == (n + 1) ** 2
        for dedup in (True, False):
            assert ex.mesh_quadrant_disk(n, dedup).nominal_size == 2 * n * (n + 1)


def test_a_report_holds_no_mesh_sizes():
    assert [f.name for f in dataclasses.fields(ex.RmseReport)] == [
        "function_id", "operator_id", "entries"]


def test_an_rmse_cell_is_one_operator_call_with_threads_by_keyword(monkeypatch):
    calls = []
    call = ex.DiskOperator.__call__

    def recorded(self, f, mesh, **kwargs):
        calls.append((self.kind, mesh.kind, len(mesh.points), kwargs))
        return call(self, f, mesh, **kwargs)

    monkeypatch.setattr(ex.DiskOperator, "__call__", recorded)
    mesh = ex.mesh_stancu_disk(4)
    ex.rmse(ex.builtin(1), ex.disk_operator("Bstancu", 4), mesh, threads=2)
    ex.run_example(2, [3])
    assert calls == [("Bstancu", "stancu", 25, {"threads": 2}),
                     ("Cbar", "quadrant", 25, {"threads": None}),
                     ("Bstancu", "stancu", 16, {"threads": None})]
