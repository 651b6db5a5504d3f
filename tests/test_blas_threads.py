"""OpenBLAS runs one thread inside the batch kernels: every group that
experiments._evaluate_groups runs, serial or pooled, sees a BLAS thread
count of 1, the count found before is restored when the last caller
leaves, and values have the same bits for any OPENBLAS_NUM_THREADS.
"""

import os
import subprocess
import sys
import textwrap
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from diskbern import _blas
from diskbern import experiments as ex

API = _blas._api()
needs_openblas = pytest.mark.skipif(API is None, reason="numpy has no OpenBLAS loaded")


@pytest.fixture
def two_blas_threads():
    """The BLAS thread count set to 2 for the test, and restored after."""
    get, set_ = API
    before = get()
    set_(2)
    yield get
    set_(before)


def groups(count):
    return [SimpleNamespace(points=np.array([i])) for i in range(count)]


def spy(get, seen, raise_at=None):
    """An evaluate that records the BLAS thread count it runs under."""
    def evaluate(g):
        seen.append(get())
        if g.points[0] == raise_at:
            raise RuntimeError("group failed")
        return float(g.points[0])
    return evaluate


@needs_openblas
@pytest.mark.parametrize("threads", [1, 3])
def test_groups_run_under_one_blas_thread(threads, two_blas_threads):
    seen = []
    out = ex._evaluate_groups(spy(two_blas_threads, seen), groups(12), 12, threads)
    assert out.tolist() == list(range(12))
    assert seen == [1] * 12
    assert two_blas_threads() == 2


@needs_openblas
@pytest.mark.parametrize("threads", [1, 3])
def test_a_failing_group_restores_the_count(threads, two_blas_threads):
    seen = []
    with pytest.raises(RuntimeError, match="group failed"):
        ex._evaluate_groups(spy(two_blas_threads, seen, raise_at=5), groups(12), 12, threads)
    assert set(seen) == {1}
    assert two_blas_threads() == 2


@needs_openblas
def test_the_count_is_restored_when_the_last_of_two_callers_leaves(two_blas_threads):
    """Caller A stays inside while caller B enters and leaves; the count
    reads 1 until A leaves too."""
    get = two_blas_threads
    a_inside, b_left = threading.Event(), threading.Event()
    seen_a, seen_b = [], []

    def hold(g):
        seen_a.append(get())
        a_inside.set()
        assert b_left.wait(10)
        seen_a.append(get())
        return 0.0

    a = threading.Thread(target=ex._evaluate_groups, args=(hold, groups(1), 1, 1))
    a.start()
    assert a_inside.wait(10)
    ex._evaluate_groups(spy(get, seen_b), groups(4), 4, 2)
    assert get() == 1  # A is still inside
    b_left.set()
    a.join(10)
    assert seen_a == [1, 1] and seen_b == [1] * 4
    assert get() == 2


@needs_openblas
def test_real_cells_run_under_one_blas_thread(two_blas_threads, monkeypatch):
    seen = []
    rows = ex.basis_rows

    def basis_rows(n, xs):
        seen.append(two_blas_threads())
        return rows(n, xs)

    monkeypatch.setattr(ex, "basis_rows", basis_rows)
    f = ex.builtin(1)
    for kind, mesh in (("Cbar", ex.mesh_quadrant_disk(30)), ("Bstancu", ex.mesh_stancu_disk(30))):
        ex.rmse(f, ex.disk_operator(kind, 30), mesh, threads=2)
    ex.cross_section("Bbar", f, [10, 20], samples=41, threads=2)
    assert seen and set(seen) == {1}
    assert two_blas_threads() == 2


@needs_openblas
def test_elevation_runs_under_one_blas_thread(two_blas_threads, monkeypatch):
    """np.convolve may call BLAS's ddot; every call that elevates the
    quadrant tables of a section sees one BLAS thread."""
    seen = []
    convolve = np.convolve

    def spy(a, v, *args):
        seen.append(two_blas_threads())
        return convolve(a, v, *args)

    monkeypatch.setattr(np, "convolve", spy)
    ex.cross_section("Cbar", ex.builtin(2), [10, 40], samples=41, threads=2)
    assert len(seen) >= 41 + 11 and set(seen) == {1}
    assert two_blas_threads() == 2


def test_without_openblas_nothing_is_called(monkeypatch):
    """With the lookup finding nothing, the BLAS thread count is left as
    it is (when there is a real one to read)."""
    get = API[0] if API else (lambda: None)
    before = get()
    monkeypatch.setattr(_blas, "_api", lambda: None)
    seen = []
    out = ex._evaluate_groups(spy(get, seen), groups(6), 6, 2)
    assert out.tolist() == list(range(6))
    assert seen == [before] * 6
    assert get() == before


BITS_SCRIPT = textwrap.dedent("""
    import hashlib, sys
    import numpy as np
    import diskbern.cli
    from diskbern import _blas
    from diskbern import experiments as ex
    assert _blas._api.cache_info().currsize == 0, "looked up at import"
    rng = np.random.default_rng(7)
    r, a = np.sqrt(rng.random(4000)), rng.uniform(0.0, 2.0 * np.pi, 4000)
    pts = np.column_stack((r * np.cos(a), r * np.sin(a)))
    digest = hashlib.sha256()
    for kind, n in (("Bstancu", 200), ("Bstancu", 400), ("Cbar", 150)):
        for e in (1, 3):
            digest.update(ex.disk_operator(kind, n)(ex.builtin(e), pts, threads=2).tobytes())
    segment = ((np.cos(1.0), np.sin(1.0)), (np.cos(4.0), np.sin(4.0)))  # three quadrants
    sections = {np.array(ex.cross_section("Cbar", ex.builtin(3), [10, 40, 80, 160], segment,
                                          samples=801, threads=threads)).tobytes()
                for threads in (1, 2, 7)}
    assert len(sections) == 1, "a section's bytes depend on threads"
    digest.update(sections.pop())
    print(digest.hexdigest())
""")


def values_digest(blas_threads):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    src = os.path.join(os.path.dirname(ex.__file__), os.pardir)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", BITS_SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_values_do_not_depend_on_openblas_num_threads():
    """Off-mesh Bstancu n = 200 and 400 and Cbar n = 150 values at 4000
    random disk points, examples 1 and 3, and a Cbar section at n = 10, 40,
    80 and 160 across three quadrants at threads 1, 2 and 7: the same bytes
    with one BLAS thread and with the host's default."""
    assert values_digest("1") == values_digest(None)
