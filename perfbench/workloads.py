"""The four benchmark workloads, built from a seed.

Each workload is a list of ops issued one after another by one caller
(closed loop). A library op is a callable that takes `fw`, the function
the runner applies to each test function before handing it to diskbern
(identity when timing, a counting wrapper when tracing). A CLI op is an
argv list that the runner executes as a subprocess or in-process.

`points` is the number of operator values an op computes; it feeds
`points_per_s` and `f.calls_per_point`.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from diskbern import bivariate as biv
from diskbern import disk
from diskbern import experiments as ex

WORKLOADS = ("tables", "large_n", "pointwise", "cli")

# Worker threads per workload; the library default for one caller is serial.
THREADS = {"tables": 1, "large_n": 2, "pointwise": 1, "cli": None}

# Percentile reported as op_s_tail, fixed per workload so that runs with
# more or fewer passes report the same statistic. Each has at least ten
# samples beyond it at the sample count a 24 s run collects at the seed
# commit (tables 192+, pointwise 4000+, cli 27+) and lies inside a group of
# similar ops rather than on the jump between two: in pointwise, p99 would
# sit on the jump from the 600 scalar calls to the 7 cross sections and
# axis checks, and p95 is the slowest scalar calls. large_n collects only
# 12-16 ops per run, so no percentile has ten beyond; it reports p75, the
# slower (Cbar) cell.
TAIL_PCT = {"tables": 90, "large_n": 75, "pointwise": 95, "cli": 60}

SECTION_N = (10, 40, 80, 160)
# Endpoint angles of the three cross-section chords before the seeded
# symmetry, which lie in one, three and two quadrants, and the example
# sampled along each. Seeding the chords themselves, or the function of
# these single heavy ops, would change their work from seed to seed: the
# quadrants a chord crosses and the cost of f both set it.
SECTION_CHORDS = (((0.3, 1.3), 1), ((1.0, 4.0), 3), ((3.6, 5.9), 4))
AXIS_EXAMPLE = 4
SECTION_SAMPLES = 801
SCALAR_N = 40
SCALAR_POINTS = 200
AXIS_SAMPLES = 64
LARGE_N = (("Cbar", 120), ("Bstancu", 320))
CLI_EVALS = (("Cbar", 10), ("Bbar", 20), ("Bstancu-disk", 40), ("Cbar", 60))
CLI_MESH_N = 200
CLI_TABLE_N = (10, 20, 30)
CLI_SECTION_N = (10, 40, 80)


def _root(x: float) -> float:
    return math.sqrt(max(1.0 - x * x, 0.0))


# The unit disk as a curvilinear domain: bivariate.stancu on it with the
# n-minus-k schedule is the same operator as disk.ball_stancu.
DISK_DOMAIN = biv.CurvilinearDomain(-1.0, 1.0, lambda x: -_root(x), _root)


@dataclass
class Op:
    key: str
    points: int
    call: Callable | None = None
    argv: list[str] | None = None
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    threads: int | None
    ops: list[Op]

    @property
    def tail_pct(self) -> int:
        return TAIL_PCT[self.name]


def quadrant_mesh_size(n: int) -> int:
    return 2 * n * (n + 1) + 1


def chord_mesh_size(n: int) -> int:
    return (n + 1) ** 2


def rmse_cell(example: int, kind: str, n: int, threads: int | None) -> Op:
    f = ex.builtin(example)

    def call(fw):
        mesh = (ex.mesh_quadrant_disk(n, dedup=True) if kind == "Cbar"
                else ex.mesh_stancu_disk(n))
        return ex.rmse(fw(f), ex.disk_operator(kind, n), mesh, threads=threads)

    size = quadrant_mesh_size(n) if kind == "Cbar" else chord_mesh_size(n)
    return Op(f"example{example}:{kind}:{n}", size, call,
              expect={"example": example, "kind": kind, "n": n})


def _tables() -> list[Op]:
    return [rmse_cell(e, kind, n, THREADS["tables"])
            for e in (1, 2, 3, 4) for n in ex.DEFAULT_N_LIST for kind in ("Cbar", "Bstancu")]


def _large_n() -> list[Op]:
    return [rmse_cell(e, kind, n, THREADS["large_n"]) for e in (1, 3) for kind, n in LARGE_N]


def disk_point(rng: random.Random, radius: float) -> tuple[float, float]:
    r = radius * math.sqrt(rng.random())
    a = rng.uniform(0.0, 2.0 * math.pi)
    return r * math.cos(a), r * math.sin(a)


def _symmetry(rng: random.Random):
    """A seeded symmetry of the square: quarter turns and a reflection map
    quadrants to quadrants, so the images of a chord cost the same."""
    turns, flip = rng.randrange(4), rng.random() < 0.5

    def apply(p):
        x, y = p[0], -p[1] if flip else p[1]
        for _ in range(turns):
            x, y = -y, x
        return x, y

    return apply


def _pointwise(rng: random.Random) -> list[Op]:
    ops = []
    for i, ((a0, a1), example) in enumerate(SECTION_CHORDS):
        sym = _symmetry(rng)
        segment = (sym((math.cos(a0), math.sin(a0))), sym((math.cos(a1), math.sin(a1))))
        for kind in ("Cbar", "Bstancu-disk"):
            def call(fw, kind=kind, f=ex.builtin(example), segment=segment):
                return ex.cross_section(kind, fw(f), SECTION_N, segment=segment,
                                        samples=SECTION_SAMPLES, threads=THREADS["pointwise"])
            ops.append(Op(f"section:{kind}:chord{i}", SECTION_SAMPLES * len(SECTION_N), call,
                          expect={"kind": kind, "example": example, "segment": segment}))
    const = biv.NodeSchedule.constant(SCALAR_N)
    n_minus_k = biv.NodeSchedule.n_minus_k()
    for i in range(SCALAR_POINTS):
        x, y = disk_point(rng, 0.98)
        f = ex.builtin(rng.randint(1, 4))
        scalar = {
            "piecewise_stancu_disk": lambda fw, f=f, x=x, y=y:
                disk.piecewise_stancu_disk(fw(f), SCALAR_N, x, y),
            "ball_stancu": lambda fw, f=f, x=x, y=y:
                disk.ball_stancu(fw(f), SCALAR_N, const, x, y),
            "stancu": lambda fw, f=f, x=x, y=y:
                biv.stancu(fw(f), DISK_DOMAIN, SCALAR_N, n_minus_k, x, y),
        }
        for name, call in scalar.items():
            ops.append(Op(f"{name}:{i}", 1, call, expect={"f": f, "x": x, "y": y}))
    ops.append(Op(
        "axis_check", 2 * 4 * (AXIS_SAMPLES + 1),
        lambda fw: disk.axis_continuity_check("stancu", fw(ex.builtin(AXIS_EXAMPLE)), SCALAR_N,
                                              samples=AXIS_SAMPLES)))
    return ops


def _cli(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    fns = ["example1", "example2", "example3", "example4"]
    rng.shuffle(fns)
    # The operator and degree of each eval stay fixed so that the work per
    # pass, and every per-layer count, is the same for every seed.
    for i, ((kind, n), fn) in enumerate(zip(CLI_EVALS, fns)):
        x, y = disk_point(rng, 0.95)
        ops.append(Op(f"eval:{i}", 1, argv=["eval", "--op", kind, "--fn", fn, "--n", str(n),
                                            f"--point={x!r},{y!r}"],
                      expect={"code": 0, "kind": kind, "fn": fn, "n": n, "x": x, "y": y}))
    table_points = sum(quadrant_mesh_size(n) + chord_mesh_size(n) for n in CLI_TABLE_N)
    ops.append(Op("table", table_points,
                  argv=["table", "--example", "4", "--n", ",".join(map(str, CLI_TABLE_N)),
                        "--out", str(workdir / "table.csv")],
                  expect={"code": 0, "csv": workdir / "table.csv"}))
    ops.append(Op("mesh", 0,
                  argv=["mesh", "--kind", "quadrant", "--n", str(CLI_MESH_N), "--dedup",
                        "--out", str(workdir / "mesh.csv")],
                  expect={"code": 0, "csv": workdir / "mesh.csv"}))
    ops.append(Op("section", SECTION_SAMPLES * len(CLI_SECTION_N),
                  argv=["section", "--op", "Cbar", "--fn", "example4",
                        "--n", ",".join(map(str, CLI_SECTION_N)),
                        "--out", str(workdir / "section.csv")],
                  expect={"code": 0, "csv": workdir / "section.csv"}))
    r = rng.uniform(1.1, 1.9)
    a = rng.uniform(0.0, 2.0 * math.pi)
    ops.append(Op("outside_disk", 0,
                  argv=["eval", "--op", "Cbar", "--fn", "example1", "--n", "10",
                        f"--point={r * math.cos(a)!r},{r * math.sin(a)!r}"],
                  expect={"code": 2}))
    ops.append(Op("bad_n_list", 0,
                  argv=["section", "--op", "Cbar", "--fn", "example1", "--n", "0,10"],
                  expect={"code": 2}))
    return ops


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload's ops in a seeded order; the same seed gives the same ops."""
    # n-minus-k gives n_k = 0 at k = n, which the library replaces by 1 with
    # a warning on every call; the substitution is the documented behaviour.
    warnings.filterwarnings("ignore", message="schedule .* yields n_k=0")
    rng = random.Random(seed)
    ops = {"tables": _tables, "large_n": _large_n, "pointwise": lambda: _pointwise(rng),
           "cli": lambda: _cli(rng, workdir)}[name]()
    rng.shuffle(ops)
    return Workload(name, seed, THREADS[name], ops)
