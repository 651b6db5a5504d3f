"""diskbern benchmark: one workload, one seed, closed loop, one caller.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

Workloads are built in workloads.py and checked by checks.py. With
`--trace 0` the run times whole passes over the workload's ops for
`--seconds` and reports the end-to-end metrics; with `--trace 1` it spends
half of that untraced and half traced (tracing.py) and reports the
per-layer metrics, writing the spans to .perfbench_out/. `--workload all`
runs every workload in both modes, each in its own process.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name every metric with
its value and unit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import srcpath

HERE = Path(__file__).resolve().parent
OUT = srcpath.ROOT / ".perfbench_out"

SETUP_PROBES = 7
CLI_PROBES = 3
CLI_TIMEOUT_S = 150
CLI_PROBE_ARGV = ["eval", "--op", "Cbar", "--fn", "example1", "--n", "10", "--point", "0.3,-0.2"]
NAN_ARGV = ["eval", "--op", "Cbar", "--fn", "example1", "--n", "5", "--point", "nan,0"]

END_TO_END_UNITS = {
    "setup_s": "s", "pass_s": "s", "op_s_p50": "s", "op_s_tail": "s",
    "points_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "univariate.basis_rows.calls": "count", "univariate.basis_rows.elems": "count",
    "univariate.basis_rows.s": "s",
    "univariate.basis_row.calls": "count", "univariate.basis_row.s": "s",
    "bivariate.stancu.calls": "count", "bivariate.stancu.s": "s",
    "disk.scalar.calls": "count", "disk.scalar.s": "s", "disk.axis_check.s": "s",
    "experiments.mesh.s": "s", "experiments.mesh.points": "count",
    "experiments.operator.s": "s", "experiments.operator.self_s": "s",
    "experiments.operator.points": "count",
    "experiments.rmse.self_s": "s", "experiments.section.s": "s",
    "experiments.pool.busy_frac": "frac",
    "f.calls": "count", "f.s": "s", "f.calls_per_point": "count",
    "cli.import_s": "s", "cli.main_s": "s", "cli.process_s": "s",
    "health.pou_max": "1", "health.nonfinite": "count",
    "health.ref_cells_within_1e-3": "count", "health.cli_nan_accepted": "count",
    "trace.overhead_frac": "frac",
}


class CliResult:
    __slots__ = ("code", "stdout")

    def __init__(self, code: int, stdout: str):
        self.code, self.stdout = code, stdout


def _env() -> dict:
    path = os.pathsep.join(filter(None, [str(srcpath.SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def cli_subprocess(argv: list[str], workdir: Path) -> CliResult:
    """Run `python -m diskbern.cli argv` in a fresh process to completion."""
    proc = subprocess.run([sys.executable, "-m", "diskbern.cli", *argv], cwd=workdir, env=_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          timeout=CLI_TIMEOUT_S)
    return CliResult(proc.returncode, proc.stdout.strip())


def cli_in_process(argv: list[str]) -> CliResult:
    from diskbern import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return CliResult(code, out.getvalue().strip())


def _median_wall(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class HostSpeed:
    """Tracks how fast this host runs a fixed calibration kernel.

    On a shared host the speed of a core drifts by 20-30% over tens of
    seconds, which moves every wall time with it. The kernel (`sample`) is
    timed between ops, outside their timed intervals; `scale` converts wall
    seconds measured near those samples to seconds at the speed where the
    kernel takes REFERENCE_S.
    """

    REFERENCE_S = 0.004
    EVERY_S = 0.25

    def __init__(self):
        import numpy as np

        self._k = np.arange(81.0)
        self._x = np.linspace(0.01, 0.99, 2048)[:, None]
        self._np = np
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self):
        """Time a slice shaped like the workloads: scalar math calls as in
        f, and a degree-80 basis-row block (2048 x 81) through exp/log."""
        np, k, x = self._np, self._k, self._x
        t0 = perf_counter()
        acc = 0.0
        for i in range(20_000):
            acc += math.sin(5e-4 * i) * i
        np.exp(k * np.log(x) + (80.0 - k) * np.log1p(-x)).sum()
        self._last = perf_counter()
        self.samples.append(self._last - t0)

    def sample_if_due(self):
        if perf_counter() - self._last > self.EVERY_S:
            self.sample()

    def scale(self, mark: int) -> float:
        """Scale for a wall time that ended when `mark` samples had been
        taken: from the median of the five samples around it."""
        return self.REFERENCE_S / statistics.median(self.samples[max(0, mark - 2):mark + 3])


def setup_seconds(workload: str, seed: int, workdir: Path, speed: HostSpeed) -> float:
    """Median time from starting a fresh interpreter to its `ready` line,
    each scaled by the host speed sampled just before and after it."""
    times = []
    for _ in range(SETUP_PROBES):
        speed.sample()
        mark = len(speed.samples)
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), workload,
                                 str(seed), str(workdir)], stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        wall = perf_counter() - t0
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("setup probe failed")
        speed.sample()
        times.append(wall * speed.scale(mark))
    return statistics.median(times)


class Tally:
    """Ops attempted and the reasons of those that failed their check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []


def run_passes(ops, seconds: float, execute, gate, tally: Tally,
               speed: HostSpeed | None = None) -> list[list[float]]:
    """Whole passes over ops until the next one would end after `seconds`.

    Each op is issued when the previous one has returned; its output is
    checked, and the host speed sampled, after its latency is taken. With
    `speed`, each latency is scaled by the host speed sampled around it.
    """
    start = perf_counter()
    passes = []
    while True:
        latencies, marks = [], []
        for op in ops:
            t0 = perf_counter()
            try:
                out = execute(op)
            except Exception as exc:  # a failing op is counted, not fatal
                out = exc
            latencies.append(perf_counter() - t0)
            marks.append(len(speed.samples) if speed is not None else 0)
            tally.attempted += 1
            reason = gate.check(op, out)
            if reason is not None:
                tally.failures.append(f"{op.key}: {reason}")
            if speed is not None:
                speed.sample_if_due()
        if speed is not None:
            latencies = [t * speed.scale(m) for t, m in zip(latencies, marks)]
        passes.append(latencies)
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def nan_point_accepted() -> bool:
    """The known defect: `eval --point nan,0` prints a value and exits 0."""
    return cli_in_process(NAN_ARGV).code != 2


def timed_run(w, seconds: float, workdir: Path, gate, tally: Tally) -> dict[str, float]:
    """End-to-end metrics; times are in seconds at the reference host speed."""
    speed = HostSpeed()
    setup_s = setup_seconds(w.name, w.seed, workdir, speed)
    if w.name == "cli":
        execute = lambda op: cli_subprocess(op.argv, workdir)
        # The largest child: every CLI op imports what a set-up probe does.
        who = resource.RUSAGE_CHILDREN
    else:
        execute = lambda op: op.call(lambda f: f)
        who = resource.RUSAGE_SELF
    passes = run_passes(w.ops, seconds, execute, gate, tally, speed)
    latencies = [t for p in passes for t in p]
    pass_s = statistics.median(sum(p) for p in passes)
    print(f"# passes {len(passes)} ({' '.join(f'{sum(p):.3f}' for p in passes)} scaled s), "
          f"op samples {len(latencies)}, op_s_tail = p{w.tail_pct}, threads {w.threads}")
    print(f"# host speed: {len(speed.samples)} calibration samples, median "
          f"{statistics.median(speed.samples):.5f} s, reference {speed.REFERENCE_S} s")
    return {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "op_s_p50": statistics.median(latencies),
        "op_s_tail": statistics.quantiles(latencies, n=100, method="inclusive")[w.tail_pct - 1],
        "points_per_s": sum(op.points for op in w.ops) / pass_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def traced_run(w, seconds: float, workdir: Path, gate, tally: Tally) -> dict[str, float]:
    """Half the time untraced, half traced; per-layer medians over traced passes."""
    import checks
    import tracing
    from diskbern import experiments as ex

    tracer = tracing.Tracer()
    if w.name == "cli":
        plain = traced_call = lambda op: cli_in_process(op.argv)
    else:
        plain = lambda op: op.call(lambda f: f)
        traced_call = lambda op: op.call(lambda f: tracing.CountingF(f, tracer))
    untraced = run_passes(w.ops, seconds / 2, plain, gate, tally)

    def traced(op):
        if op is w.ops[0]:
            tracer.begin_pass()
        tracer.op = f"{len(tracer.passes) - 1}:{op.key}"
        tracer.active = True
        try:
            with tracer.span("op"):
                return traced_call(op)
        finally:
            tracer.active = False

    builtins = dict(ex.BUILTINS)  # the CLI looks test functions up here
    try:
        with tracing.instrument(tracer):
            ex.BUILTINS.update({k: tracing.CountingF(f, tracer) for k, f in builtins.items()})
            traced_passes = run_passes(w.ops, seconds / 2, traced, gate, tally)
    finally:
        ex.BUILTINS.update(builtins)

    points = sum(op.points for op in w.ops)
    layer = tracing.median_metrics([tracing.pass_metrics(p, points) for p in tracer.passes])
    import_cli = [sys.executable, "-c", "import diskbern.cli"]
    layer["cli.import_s"] = _median_wall(
        lambda: subprocess.run(import_cli, env=_env(), cwd=workdir, check=True), CLI_PROBES)
    layer["cli.process_s"] = _median_wall(
        lambda: cli_subprocess(CLI_PROBE_ARGV, workdir), CLI_PROBES)
    layer["cli.main_s"] = _median_wall(lambda: cli_in_process(CLI_PROBE_ARGV), CLI_PROBES)
    layer["health.ref_cells_within_1e-3"] = checks.cell_reference_hits(gate.cells)
    layer["health.cli_nan_accepted"] = int(nan_point_accepted())
    layer["trace.overhead_frac"] = (statistics.median(sum(p) for p in traced_passes)
                                    / statistics.median(sum(p) for p in untraced) - 1.0)
    dump = OUT / f"trace-{w.name}-seed{w.seed}.json"
    tracer.dump(dump, {"workload": w.name, "seed": w.seed})
    print(f"# untraced passes {len(untraced)}, traced passes {len(traced_passes)}, "
          f"spans in {dump.relative_to(srcpath.ROOT)}")
    return layer


def provenance() -> str:
    import numpy
    import scipy

    return (f"# nproc {os.cpu_count()}, machine {platform.machine()}, "
            f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}")


def run_one(args) -> dict:
    import checks
    import workloads as wl

    OUT.mkdir(exist_ok=True)
    print(provenance())
    tally = Tally()
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as tmp:
        workdir = Path(tmp)
        w = wl.build(args.workload, args.seed, workdir)
        gate = checks.Gate(w, checks.load_golden())
        if args.trace:
            metrics, units = traced_run(w, args.seconds, workdir, gate, tally), PER_LAYER_UNITS
        else:
            metrics, units = timed_run(w, args.seconds, workdir, gate, tally), END_TO_END_UNITS
            if nan_point_accepted():
                print("# known defect: `diskbern eval --point nan,0` exits 0 with a value",
                      file=sys.stderr)
    for reason in tally.failures[:20]:
        print(f"# FAILED {reason}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:.10g} {unit}")
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(args) -> dict:
    """Every workload in both modes, each in a fresh process."""
    import workloads as wl

    results = {}
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"## {name} trace={trace}", flush=True)
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            results[f"{name}/trace{trace}"] = json.loads(lines[-1])
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("tables", "large_n", "pointwise",
                                                              "cli", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    srcpath.use_checkout_source()
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
