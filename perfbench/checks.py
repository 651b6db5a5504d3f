"""Correctness gate for every op; it runs outside the timed interval.

- RMSE cells match the golden values recorded at the seed commit with
  threads=1: relative 1e-12 for `tables`, bit-identical for `large_n`
  (which runs at 2 threads).
- Off-mesh values match an independent evaluation at 1e-10: the piecewise
  quadrant operator (Cbar/Bbar) against the transform path
  `quadrant_bernstein_type_via_transforms` (see `oracle` for the step
  function example4), the chord-mesh operator against
  `ball_stancu` with a constant schedule, the scalar paths against the
  batch `DiskOperator`, and `bivariate.stancu` on the disk against
  `ball_stancu` with the n-minus-k schedule.
- CLI calls return the expected exit code and write CSV values that match
  the golden values (or, for the mesh, the closed-form node coordinates)
  to the 9 significant digits the CSV carries.

An op whose output was verified once is verified on later passes by
comparing it with that first output, which must repeat exactly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

from diskbern import bivariate as biv
from diskbern import disk
from diskbern import experiments as ex

import workloads as wl

GOLDEN = Path(__file__).resolve().parent / "golden.json"

ORACLE_TOL = 1e-10
CELL_RTOL = 1e-12
CSV_RTOL = 6e-9  # half a unit in the 9th significant digit, plus slack


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def close(value: float, reference: float, tol: float = ORACLE_TOL) -> bool:
    return abs(value - reference) <= tol * max(1.0, abs(reference))


def csv_close(value: float, reference: float) -> bool:
    return abs(value - reference) <= CSV_RTOL * abs(reference) + 1e-15


def quadrant_of(x: float, y: float) -> disk.Quadrant:
    """The quadrant the piecewise operator uses: ties go B1 > B2 > B3 > B4."""
    if x >= 0.0 and y >= 0.0:
        return disk.Quadrant.B1
    if x <= 0.0 and y >= 0.0:
        return disk.Quadrant.B2
    if x <= 0.0 and y <= 0.0:
        return disk.Quadrant.B3
    return disk.Quadrant.B4


# example4 jumps on the circles r^2 = 0.5 and 0.8, and the quadrant nodes
# (r^2 = (k + j)/n) lie on them whenever 10 divides n. The transform path
# builds those nodes with different rounding, so f takes the other value at
# some of them and the two evaluations differ by up to 1e-3. For example4
# the reference is therefore the other closed-form evaluator, which builds
# the same nodes: the scalar path for batch outputs and the batch path for
# scalar outputs.
STEP = ex.builtin(4)


def oracle(kind: str, f, n: int, x: float, y: float, scalar_output: bool = False) -> float:
    if kind not in ("Cbar", "Bbar"):
        return disk.ball_stancu(f, n, biv.NodeSchedule.constant(n), x, y)
    if f is not STEP:
        return disk.quadrant_bernstein_type_via_transforms(f, quadrant_of(x, y), n, x, y)
    if scalar_output:
        return float(ex.disk_operator("Cbar", n)(f, [(x, y)])[0])
    return disk.piecewise_stancu_disk(f, n, x, y)


def cell_reference_hits(cells: dict[tuple[int, str, int], float]) -> int:
    """How many RMSE cells lie within relative 1e-3 of ex.REFERENCE_RMSE."""
    hits = 0
    for (example, kind, n), value in cells.items():
        ref = ex.REFERENCE_RMSE.get(example, {}).get(n)
        if ref is not None:
            target = ref[0] if kind == "Cbar" else ref[1]
            hits += abs(value - target) <= 1e-3 * abs(target)
    return hits


class Gate:
    """Checks op outputs of one workload; `check` returns None or a reason."""

    def __init__(self, workload: wl.Workload, golden: dict):
        self.workload = workload
        self.golden = golden
        self.first: dict[str, object] = {}
        self.cells: dict[tuple[int, str, int], float] = {}  # RMSE cells seen

    def check(self, op: wl.Op, out) -> str | None:
        if isinstance(out, BaseException):
            return f"raised {type(out).__name__}: {out}"
        seen = self._fingerprint(op, out)
        if op.key in self.first:
            return None if self.first[op.key] == seen else "output differs from first pass"
        reason = getattr(self, f"_check_{self.workload.name}")(op, out)
        if reason is None:
            self.first[op.key] = seen
        return reason

    def _fingerprint(self, op: wl.Op, out):
        if self.workload.name != "cli":
            return out
        data = op.expect["csv"].read_bytes() if "csv" in op.expect and out.code == 0 else b""
        return out.code, out.stdout, hashlib.sha256(data).hexdigest()

    def _check_tables(self, op, value):
        self._record_cell(op, value)
        golden = self.golden["tables"][op.key]
        return None if close(value, golden, CELL_RTOL) else f"rmse {value!r} != golden {golden!r}"

    def _check_large_n(self, op, value):
        self._record_cell(op, value)
        golden = self.golden["large_n"][op.key]
        return None if value == golden else f"rmse {value!r} not bit-identical to {golden!r}"

    def _record_cell(self, op, value):
        e = op.expect
        self.cells[e["example"], e["kind"], e["n"]] = value

    def _check_pointwise(self, op, out):
        e = op.expect
        name = op.key.split(":")[0]
        if name == "section":
            return self._check_section(op, out)
        if name == "axis_check":
            return None if math.isfinite(out) and out <= ORACLE_TOL else f"axis mismatch {out!r}"
        f, x, y, n = e["f"], e["x"], e["y"], wl.SCALAR_N
        if name == "piecewise_stancu_disk":
            ref = oracle("Cbar", f, n, x, y, scalar_output=True)
        elif name == "ball_stancu":
            ref = float(ex.disk_operator("Bstancu", n)(f, [(x, y)])[0])
        else:
            ref = disk.ball_stancu(f, n, biv.NodeSchedule.n_minus_k(), x, y)
        return None if close(out, ref) else f"{out!r} != oracle {ref!r}"

    def _check_section(self, op, rows):
        e = op.expect
        f = ex.builtin(e["example"])
        (x0, y0), (x1, y1) = e["segment"]
        if len(rows) != wl.SECTION_SAMPLES:
            return f"{len(rows)} rows"
        s_ref = np.linspace(0.0, 1.0, wl.SECTION_SAMPLES)
        for i, row in enumerate(rows):
            s, x, y, fv = row[:4]
            if (len(row) != 4 + len(wl.SECTION_N) or s != s_ref[i]
                    or not close(x, x0 + s * (x1 - x0), 1e-12)
                    or not close(y, y0 + s * (y1 - y0), 1e-12) or fv != f(x, y)):
                return f"row {i} has wrong coordinates or f value"
        rng = random.Random(f"{self.workload.seed}:{op.key}")
        for i in rng.sample(range(wl.SECTION_SAMPLES), 3):
            s, x, y = rows[i][:3]
            for n, value in zip(wl.SECTION_N, rows[i][4:]):
                ref = oracle(e["kind"], f, n, x, y)
                if not close(value, ref):
                    return f"row {i} n={n}: {value!r} != oracle {ref!r}"
        return None

    def _check_cli(self, op, out):
        e = op.expect
        if out.code != e["code"]:
            return f"exit code {out.code}, expected {e['code']}"
        if e["code"] != 0:
            return None if out.stdout == "" else f"printed {out.stdout!r} on error"
        name = op.key.split(":")[0]
        if name == "eval":
            try:
                value = float(out.stdout)
            except ValueError:
                return f"not a number: {out.stdout!r}"
            ref = oracle(e["kind"], ex.builtin(e["fn"]), e["n"], e["x"], e["y"])
            return None if close(value, ref) else f"{value!r} != oracle {ref!r}"
        if out.stdout.strip() != str(e["csv"]):
            return f"printed {out.stdout!r}, expected the CSV path"
        header, rows = _read_csv(e["csv"])
        return getattr(self, f"_check_cli_{name}")(header, rows)

    def _check_cli_table(self, header, rows):
        if header != ["n", "rmse_C", "rmse_B"] or [int(r[0]) for r in rows] != list(wl.CLI_TABLE_N):
            return "table CSV has wrong header or n column"
        for n, rc, rb in rows:
            for kind, value in (("Cbar", rc), ("Bstancu", rb)):
                self.cells[4, kind, int(n)] = float(value)
                golden = self.golden["tables"][f"example4:{kind}:{n}"]
                if not csv_close(float(value), golden):
                    return f"table n={n} {kind}: {value} != golden {golden!r}"
        return None

    def _check_cli_mesh(self, header, rows):
        n = wl.CLI_MESH_N
        if header != ["x", "y", "quadrant", "k", "j"] or len(rows) != wl.quadrant_mesh_size(n):
            return f"mesh CSV has wrong header or {len(rows)} rows"
        if len({(r[0], r[1]) for r in rows}) != len(rows):
            return "mesh CSV has repeated points"
        for x, y, q, k, j in rows:
            k, j = int(k), int(j)
            sx, sy = disk.Quadrant[q].value
            if not (0 <= k <= n and 0 <= j <= n - k and csv_close(float(x), sx * math.sqrt(k / n))
                    and csv_close(float(y), sy * math.sqrt(j / n))):
                return f"mesh row {x},{y},{q},{k},{j} is not a quadrant node"
        return None

    def _check_cli_section(self, header, rows):
        golden = self.golden["cli_section"]
        if header != ["s", "x", "y", "f"] + [f"op_{n}" for n in wl.CLI_SECTION_N] \
                or len(rows) != len(golden):
            return "section CSV has wrong header or row count"
        for i, (row, ref) in enumerate(zip(rows, golden)):
            if not all(csv_close(float(v), r) for v, r in zip(row, ref)):
                return f"section row {i}: {row} != golden {ref}"
        return None


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(path.read_text())))
    return rows[0], rows[1:]
