"""The benchmark's large-n RMSE cells, recomputed and compared bit for bit
with the values recorded in perfbench/golden.json (read, never written).
Every kernel change so far has kept these cells bit-identical; this test
keeps that visible in the test suite as well as in the benchmark.
"""

import json
from pathlib import Path

import pytest

from diskbern import experiments as ex

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def large_n_cells():
    return json.loads(GOLDEN.read_text())["large_n"]


@pytest.mark.parametrize("key", sorted(large_n_cells()))
def test_large_n_cell_bit_identical_to_golden(key):
    name, kind, n = key.split(":")
    n = int(n)
    mesh = ex.mesh_quadrant_disk(n, dedup=True) if kind == "Cbar" else ex.mesh_stancu_disk(n)
    value = ex.rmse(ex.builtin(name), ex.disk_operator(kind, n), mesh, threads=2)
    assert value == large_n_cells()[key]
