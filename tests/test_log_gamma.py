"""The stdlib log-gamma port and the log-factorial and log-binomial tables
built from it, checked bit for bit against scipy.special.gammaln, which
evaluates the same cephes routine; and the import-time guard that keeps
scipy out of the runtime.
"""

import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln

import diskbern
from diskbern import univariate as uv


def test_lgam_bit_equal_to_gammaln():
    m = np.arange(1, 200001)
    ours = np.array([uv._lgam(int(i)) for i in m])
    assert ours.tobytes() == gammaln(m.astype(float)).tobytes()


@pytest.mark.parametrize("m", [10**8 - 1, 10**8, 10**8 + 1, 10**12, 2**53])
def test_lgam_bit_equal_to_gammaln_beyond_the_series(m):
    assert uv._lgam(m).hex() == float(gammaln(float(m))).hex()


def test_log_binomials_bit_equal_to_gammaln_expression():
    for n in range(1001):
        k = np.arange(n + 1)
        expected = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
        assert uv._log_binomials(n).tobytes() == expected.tobytes(), n


def test_log_factorials_bit_equal_to_gammaln():
    lf = uv.log_factorials(3000)
    assert lf.shape == (3001,)
    assert lf.tobytes() == gammaln(np.arange(3001) + 1.0).tobytes()


def test_cached_arrays_are_read_only():
    for array in (uv.log_factorials(7), uv.log_factorials(5000), uv._log_binomials(9)):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_growing_table_keeps_earlier_views(monkeypatch):
    monkeypatch.setattr(uv, "_log_factorial_table", uv.log_factorials(4).copy())
    small = uv.log_factorials(4)
    before = small.copy()
    uv.log_factorials(60)
    assert np.array_equal(small, before)
    assert np.array_equal(uv.log_factorials(4), before)


def test_concurrent_growth_gives_complete_tables(monkeypatch):
    # Threads that grow the table at once may each build it, and a smaller
    # table may replace a bigger one, but no caller sees a partial table.
    monkeypatch.setattr(uv, "_log_factorial_table", uv.log_factorials(0).copy())
    expected = gammaln(np.arange(4001) + 1.0)
    seen = []

    def grow(n):
        for m in (n // 3, n, n // 2):
            seen.append((m, uv.log_factorials(m).copy()))

    workers = [threading.Thread(target=grow, args=(n,)) for n in range(100, 4001, 300)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(seen) == 3 * len(workers)
    for m, lf in seen:
        assert lf.tobytes() == expected[: m + 1].tobytes()


def test_cli_import_leaves_scipy_out():
    src = str(Path(diskbern.__file__).resolve().parents[1])
    probe = "import sys, diskbern.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={"PYTHONPATH": src}, check=True)
    assert result.stdout.strip() == "[]"
