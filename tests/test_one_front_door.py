"""One front door for batch evaluation: in src/diskbern only
experiments._operator_values checks points (_checked_points), builds the
groups (_groups) and calls the two kernels (_tensor_disk_batch and
_piecewise_disk_batch), which take node tables and groups, never f or raw
points. So the kind, every degree, the points and threads are checked
before f is called whatever the degree list or point set, and the groups
are built once per call. A caller that checks or groups on its own fails
here; call _operator_values instead.
"""

import inspect
import math

import numpy as np
import pytest

from diskbern import experiments as ex
from name_users import users

GUARDED = {"_checked_points", "_groups", "_tensor_disk_batch", "_piecewise_disk_batch"}


def test_only_the_front_door_checks_groups_and_calls_the_kernels():
    assert users(GUARDED) == {"experiments._operator_values": GUARDED}


def test_the_kernels_take_no_f_and_no_points():
    for kernel in (ex._tensor_disk_batch, ex._piecewise_disk_batch):
        assert not {"f", "pts"} & set(inspect.signature(kernel).parameters)


def test_a_bypass_is_found(tmp_path):
    (tmp_path / "extra.py").write_text(
        "from .experiments import _checked_points, _tensor_disk_batch\n\n"
        "def checked(pts):\n"
        "    return _checked_points(pts)\n\n"
        "def grouped(u, t):\n"
        "    return ex._groups(u, t)\n\n"
        "def passed_on(args):\n"
        "    return [_tensor_disk_batch(*a) for a in args]\n\n"
        "def nested():\n"
        "    def inner(*a):\n"
        "        return ex._piecewise_disk_batch(*a)\n"
        "    return inner\n\n"
        "def _groups_free(x):\n"
        "    return x\n")
    assert users(GUARDED, tmp_path) == {"extra.checked": {"_checked_points"},
                               "extra.grouped": {"_groups"},
                               "extra.passed_on": {"_tensor_disk_batch"},
                               "extra.nested.inner": {"_piecewise_disk_batch"}}


# ---------------------------------------------------------------------------
# every input is checked before f is called, with no degree or no point too

class Recording:
    def __init__(self):
        self.calls = 0

    def __call__(self, x, y):
        self.calls += 1
        return 2.0


@pytest.mark.parametrize("call, message", [
    (lambda f: ex.cross_section("Cbar", f, [], segment=((math.nan, 0.0), (1.0, 0.0))),
     "mesh point index 0 is not finite"),
    (lambda f: ex.cross_section("Cbar", f, [], segment=((math.inf, 0.0), (1.0, 0.0))),
     "mesh point index 0 is not finite"),
    (lambda f: ex.cross_section("Bbar", f, [], segment=((0.0, 0.0), (1.5, 0.0))),
     "mesh point index 534 outside the unit disk"),
    (lambda f: ex.cross_section("Nope", f, []), "unknown operator kind 'Nope'"),
    (lambda f: ex.DiskOperator("Nope", 3)(f, []), "unknown operator kind 'Nope'"),
    (lambda f: ex.DiskOperator("Cbar", 2.5)(f, []), "n must be an integer"),
    (lambda f: ex.DiskOperator("Bstancu", 0)(f, [(0.1, 0.2)]), "n must be >= 1"),
    (lambda f: ex.cross_section("Bstancu-disk", f, [], threads=0), "threads must be >= 1"),
    (lambda f: ex.DiskOperator(["Cbar"], 3)(f, []), r"unknown operator kind \['Cbar'\]"),
    (lambda f: ex.disk_operator(["Cbar"], 3), r"unknown operator kind \['Cbar'\]"),
    (lambda f: ex.rmse(f, ex.DiskOperator("Cbar", 3), ex.MeshSpec("quadrant", 3, True, np.empty((0, 2))),
                       denominator="actual"), "the actual mesh size is 0"),
], ids=["nan-endpoint", "inf-endpoint", "outside-endpoint", "section-kind", "operator-kind",
        "degree-no-points", "degree-zero", "threads-no-degrees", "unhashable-kind",
        "unhashable-kind-disk-operator", "rmse-no-points"])
def test_bad_input_raises_before_f_is_called(call, message):
    f = Recording()
    with pytest.raises(ValueError, match=message):
        call(f)
    assert f.calls == 0


def test_no_degree_or_no_point_gives_empty_values():
    f = Recording()
    assert [len(v) for v in ex._operator_values("Cbar", f, [3, 5], [], 1)] == [0, 0]
    assert len(ex._operator_values("Bstancu-disk", f, [], [(0.1, 0.2)], None)) == 0
    assert f.calls == 0
    rows = ex.cross_section("Cbar", f, [], samples=3)
    assert [row[3:] for row in rows] == [(2.0,)] * 3 and f.calls == 3


# ---------------------------------------------------------------------------
# the groups are built once per call

@pytest.mark.parametrize("kind, n_list", [
    ("Cbar", list(range(10, 90, 10))),
    ("Bstancu", [10, 40, 80, 160]),
])
def test_a_section_builds_its_groups_once(kind, n_list, monkeypatch):
    built = []
    groups = ex._groups
    monkeypatch.setattr(ex, "_groups", lambda u, t: built.append(u.size) or groups(u, t))
    rows = ex.cross_section(kind, ex.builtin(1), n_list, samples=301)
    assert built == [301] and len(rows[0]) == 4 + len(n_list)
