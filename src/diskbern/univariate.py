"""Univariate Bernstein bases and operators on general intervals.

Everything here is a pure function of its inputs; basis rows are computed
in log space (log-gamma), so no degree overflows or underflows early. The
operators built on them keep the exact images of low-degree monomials
within 2e-15 n up to n = 1100 (tests/test_moments.py).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _blas

__all__ = [
    "Interval",
    "UNIT_INTERVAL",
    "Transform1D",
    "TransformDiagnostics",
    "basis_classical",
    "basis_row",
    "basis_rows",
    "basis_shifted",
    "basis_shifted_row",
    "basis_shifted_derivative",
    "basis_argmax",
    "bernstein",
    "bernstein_shifted",
    "c_tau",
    "c_tau_shifted",
    "check_f_values",
    "log_factorials",
    "validate_transform",
]

# Fixed tolerances: an interval or a quadrant holds a point up to _EPS
# outside it, the unit disk and a curvilinear domain up to _SLACK; a
# transform and a domain are checked on _GRID points.
_EPS = 1e-12
_SLACK = 1e-9
_GRID = 1024


def _not_bool(x, name: str):
    """x; ValueError naming it if it is a bool, Python's or numpy's, which
    would otherwise read as the coordinate 1 or 0."""
    if isinstance(x, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, got {x!r}")
    return x


@dataclass(frozen=True)
class Interval:
    """Closed interval [alpha, beta] with alpha < beta, both finite."""

    alpha: float
    beta: float

    def __post_init__(self):
        _not_bool(self.alpha, "alpha")
        _not_bool(self.beta, "beta")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("interval endpoints must be finite")
        if not self.alpha < self.beta:
            raise ValueError(f"need alpha < beta, got [{self.alpha}, {self.beta}]")

    @property
    def width(self) -> float:
        return self.beta - self.alpha

    def contains(self, x: float) -> bool:
        return self.alpha - _EPS <= x <= self.beta + _EPS

    def to_unit(self, x) -> float:
        """Affine map of the interval onto [0, 1]."""
        return (x - self.alpha) / self.width

    def from_unit(self, s) -> float:
        return self.width * s + self.alpha


UNIT_INTERVAL = Interval(0.0, 1.0)


def _degree(n, least: int = 1, name: str = "n") -> int:
    """n as an int; ValueError unless it is an integer >= least, and not a
    bool. A count such as samples takes the same rule under its own name."""
    try:
        value = operator.index(n)
    except TypeError:
        value = None
    if value is None or isinstance(n, bool):  # operator.index(True) is 1
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}" if least else "degree must be non-negative")
    return value


def _check_unit(x: float) -> float:
    _not_bool(x, "x")
    if not -_EPS <= x <= 1.0 + _EPS:
        raise ValueError(f"argument {x} outside [0, 1]")
    return min(max(x, 0.0), 1.0)


# log Gamma at the positive integers, ported from cephes lgam (the routine
# behind scipy.special.gammaln) with its operations in its order, so every
# value is bit-identical to gammaln's.

_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
             7.93650340457716943945e-4, -2.77777777730099687205e-3,
             8.33333333333331927722e-2)


def _lgam(m: int) -> float:
    """log Gamma(m) = log((m - 1)!) for an integer m >= 1."""
    if m < 13:  # cephes multiplies out the factorial, exactly at these sizes
        return math.log(float(math.factorial(m - 1)))
    x = float(m)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    s = _STIRLING[0]
    for c in _STIRLING[1:]:
        s = s * p + c
    return q + s / x


_log_factorial_table = np.zeros(1)  # log(0!)
_log_factorial_table.flags.writeable = False


def log_factorials(n: int) -> np.ndarray:
    """log(i!) for i = 0..n, a read-only view of one table shared by every
    caller. Growing the table swaps in a new array instead of filling the
    old one, so a concurrent reader only ever sees a complete table; threads
    that grow it at once may each build one.
    """
    global _log_factorial_table
    table = _log_factorial_table
    if table.size <= n:
        size = max(n + 1, 2 * table.size)
        table = np.concatenate((table, [_lgam(i + 1) for i in range(table.size, size)]))
        table.flags.writeable = False
        _log_factorial_table = table
    return table[: n + 1]


@functools.lru_cache(maxsize=1024)
def _log_binomials(n: int) -> np.ndarray:
    """Read-only log C(n, k) for k = 0..n."""
    lf = log_factorials(n)
    row = lf[n] - lf[: n + 1] - lf[n::-1]
    row.flags.writeable = False
    return row


def basis_classical(n: int, k: int, x: float) -> float:
    """Degree-n Bernstein basis polynomial C(n,k) x^k (1-x)^(n-k) on [0, 1]:
    entry k of basis_row(n, x), so 0^0 = 1 at the endpoints.
    """
    row = basis_row(n, x)
    if not 0 <= k <= n:
        raise ValueError(f"basis index {k} out of range [0, {n}]")
    return float(row[k])


def basis_row(n: int, x: float) -> np.ndarray:
    """All n+1 Bernstein basis values at x: entry k is
    exp((log C(n, k) + k log x) + (n - k) log(1 - x)), from _log_binomials(n)
    and the math.log and math.log1p of x, so it neither overflows nor
    underflows to 0 early at any degree; the one-hot rows at x = 0 and 1."""
    n = _degree(n, 0)
    x = _check_unit(x)
    if x == 0.0 or x == 1.0:
        row = np.zeros(n + 1)
        row[n if x == 1.0 else 0] = 1.0
        return row
    row = _log_binomials(n)
    k = np.arange(n + 1, dtype=float)
    row = row + k * math.log(x)
    row += k[::-1] * math.log1p(-x)
    return np.exp(row, out=row)


def _check_unit_array(xs) -> np.ndarray:
    """xs as a 1-D float array clipped to [0, 1]; ValueError if it has
    another shape or an entry is non-finite or further than _EPS outside."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError(f"arguments must be a 1-D array, got shape {xs.shape}")
    if not np.isfinite(xs).all():
        raise ValueError("arguments must be finite")
    if np.any(xs < -_EPS) or np.any(xs > 1.0 + _EPS):
        raise ValueError("arguments outside [0, 1]")
    return np.clip(xs, 0.0, 1.0)


def check_f_values(values: np.ndarray, point_at: Callable[[int], tuple[float, ...]]):
    """Raise ValueError if f returned NaN or inf anywhere in values; point_at
    maps the flat index of the first such value to the point f was called at.
    """
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        point = ", ".join(map(repr, point_at(i)))
        raise ValueError(f"f({point}) = {values.flat[i]} is not finite")


def basis_rows(n: int, xs: np.ndarray) -> np.ndarray:
    """Vectorized basis rows: shape (len(xs), n+1); xs must lie in [0, 1]."""
    return next(_degree_rows(n, xs))


def _degree_rows(n: int, xs: np.ndarray):
    """Yield basis_rows(m, xs) for m = n, n-1, ..., 0.

    a[:, k] = k log x and b[:, c] = (n - c) log(1 - x); degree m adds
    logC(m, k) to a[:, k] and then b[:, n - m + k] = (m - k) log(1 - x).
    Rows at x = 0 and x = 1 get 0 and -inf entries in a and b, whose sum
    exponentiates to exactly the one-hot row. Degree n is built in a itself,
    so a caller that takes only the first row holds two (len(xs), n+1)
    arrays, not three; a lower degree rebuilds a once and reuses degree n's
    array as its buffer. Each yielded array is contiguous, and the next
    degree overwrites it.
    """
    n = _degree(n, 0)
    xs = _check_unit_array(xs)
    k = np.arange(n + 1)
    interior = (xs > 0.0) & (xs < 1.0)
    xi = np.where(interior, xs, 0.5)[:, None]
    a = k * np.log(xi)
    b = k[::-1] * np.log1p(-xi)
    one_hot = np.full(n + 1, -np.inf)
    one_hot[0] = 0.0
    zero, one = xs == 0.0, xs == 1.0
    a[zero], b[zero] = one_hot, 0.0
    a[one], b[one] = 0.0, one_hot[::-1]
    a += _log_binomials(n)
    a += b
    yield np.exp(a, out=a)
    buffer, a = a.reshape(-1), k * np.log(xi)
    a[zero], a[one] = one_hot, 0.0
    for m in range(n - 1, -1, -1):
        rows = buffer[: xs.size * (m + 1)].reshape(xs.size, m + 1)
        np.add(a[:, : m + 1], _log_binomials(m), out=rows)
        rows += b[:, n - m:]
        yield np.exp(rows, out=rows)


# The largest degree _elevate reaches within the float range for every
# table. Each row is divided by the power of two above its largest |F|, so
# the largest sums are those of a row of values just below that power: a
# table of 1 - 2^-53 elevates at 2048 and overflows at 2049 (a table of ones,
# scaled to halves, reaches 2050).
_ELEVATE_MAX = 2048


def _check_elevation(n: int) -> None:
    """ValueError naming n if _elevate cannot raise rows to degree n, so a
    caller can fail before it samples f."""
    if n > _ELEVATE_MAX:
        raise ValueError(f"degree {n} is too large to elevate within the float range "
                         f"(at most {_ELEVATE_MAX})")


def _log_binomial_block(n: int) -> np.ndarray:
    """L[m, k] = (log m! - log k!) - log (m - k)!, as in _log_binomials(m),
    for m, k = 0..n; the entries right of column m are no binomials."""
    lf = log_factorials(n)
    L = np.subtract.outer(lf, lf)
    # row m of the reversed windows of lf[n], ..., lf[0], ..., lf[n] is lf[|m - k|]
    L -= np.lib.stride_tricks.sliding_window_view(np.concatenate((lf[::-1], lf[1:])), n + 1)[::-1]
    return L


def _elevate(tables: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Raise, in place, every row of a stack of node tables to degree
    n = max(degrees), the tables' last column, and return the stack. Row k
    holds Bernstein coefficients of degree m = degrees[k] in its first m + 1
    columns, and becomes C[k, i] = sum_j F[k, j] C(m, j) C(n - m, i - j) / C(n, i)
    (Farouki and Rajan, CAGD 5, 1988): one convolution per row, of every
    table at once while the row is at least as long as its kernel
    C(n - m, .), and of each table alone after that, where the zeros between
    the tables would cost more than the calls. The convolutions run under
    one BLAS thread, and the (n+1, n+1) log-binomial block is built for the
    call alone.

    Each row k of each table is first divided by the power of two 2^e_k
    above its largest |F|, and each binomial row C(d, .) by exp(h_d), h_d
    half its largest log, so every product and sum lies within about
    exp(+-h_n). That is inside the float range to n = _ELEVATE_MAX, which
    callers check (_check_elevation) before they sample f; a coefficient
    that still leaves it raises ValueError.
    """
    n = tables.shape[2] - 1
    _, e = np.frexp(np.maximum(tables.max(axis=2), -tables.min(axis=2)))
    tables *= np.ldexp(1.0, -e)[..., None]  # exact: the |F| of each row now below 1
    scaled = _log_binomial_block(n)  # row d: log C(d, j) in columns j <= d
    i = np.arange(n + 1)
    half = 0.5 * scaled[i, i // 2]
    # 2^e_k exp(h_m + h_{n-m} - h_n), m = degrees[k]
    rows = np.ldexp(np.exp(half[degrees] + half[n - degrees] - half[n]), e)
    columns = np.exp(half[n] - scaled[n])  # exp(h_n) / C(n, i)
    scaled -= half[:, None]
    np.exp(scaled, out=scaled)  # row d: C(d, j) / exp(h_d) in columns j <= d
    padded = np.zeros((len(tables), n + 1))  # each table's row k, then n - m zeros
    with _blas.one_thread(), np.errstate(over="ignore", invalid="ignore"):
        for k, m in enumerate(degrees.tolist()):
            d = n - m
            if m < d:  # a row shorter than its kernel: one convolution per table
                for table in tables:
                    table[k] = np.convolve(table[k, : m + 1] * scaled[m, : m + 1],
                                           scaled[d, : d + 1])
            else:  # the n - m zeros after each table's row keep their products apart
                padded[:, m + 1:] = 0.0
                np.multiply(tables[:, k, : m + 1], scaled[m, : m + 1], out=padded[:, : m + 1])
                product = np.convolve(padded.ravel(), scaled[d, : d + 1])
                tables[:, k] = product[: padded.size].reshape(padded.shape)
        tables *= rows[..., None]
        tables *= columns
    if not np.isfinite(tables).all():
        raise ValueError(f"degree {n} is too large to elevate within the float range")
    return tables


def basis_shifted(n: int, k: int, x: float, iv: Interval) -> float:
    """Bernstein basis transported to iv by the affine change of variable."""
    if not iv.contains(_not_bool(x, "x")):
        raise ValueError(f"{x} outside [{iv.alpha}, {iv.beta}]")
    return basis_classical(n, k, iv.to_unit(x))


def basis_shifted_row(n: int, x: float, iv: Interval) -> np.ndarray:
    if not iv.contains(_not_bool(x, "x")):
        raise ValueError(f"{x} outside [{iv.alpha}, {iv.beta}]")
    return basis_row(n, iv.to_unit(x))


def basis_shifted_derivative(n: int, k: int, x: float, iv: Interval) -> float:
    """d/dx of the shifted basis via the degree-lowering recurrence."""
    if n == 0:
        return 0.0
    left = basis_shifted(n - 1, k - 1, x, iv) if k - 1 >= 0 else 0.0
    right = basis_shifted(n - 1, k, x, iv) if k <= n - 1 else 0.0
    return n * (left - right) / iv.width


def basis_argmax(n: int, k: int, iv: Interval) -> tuple[float, float]:
    """Location and value of the unique maximum of the shifted basis member."""
    if _degree(n, 0) < 1:
        raise ValueError("degree-0 basis has no unique maximum")
    if not 0 <= k <= n:
        raise ValueError(f"basis index {k} out of range [0, {n}]")
    return iv.width * k / n + iv.alpha, basis_classical(n, k, k / n)


def bernstein(f: Callable[[float], float], n: int, x: float) -> float:
    """Classical Bernstein operator of f on [0, 1] evaluated at x.

    n = 0 uses the single-node convention: the constant f(0).
    """
    return bernstein_shifted(f, n, x, UNIT_INTERVAL)


def bernstein_shifted(f: Callable[[float], float], n: int, x: float, iv: Interval) -> float:
    """Bernstein operator of f on iv, nodes equally spaced over iv. A NaN or
    inf value of f raises ValueError naming its node."""
    row = basis_shifted_row(n, x, iv)
    nodes = iv.from_unit(np.arange(n + 1) / n).tolist() if n else [float(iv.alpha)]
    fvals = np.array([f(t) for t in nodes])
    check_f_values(fvals, lambda i: (nodes[i],))
    return float(row @ fvals) if n else float(fvals[0])


@dataclass(frozen=True)
class TransformDiagnostics:
    """Sampled validation of an endpoint-fixing monotone reparameterization."""

    endpoint_residuals: tuple[float, float]
    min_forward_difference: float
    max_roundtrip_error: float

    @property
    def passed(self) -> bool:
        return (
            max(abs(r) for r in self.endpoint_residuals) <= 1e-12
            and self.min_forward_difference > 0.0
            and self.max_roundtrip_error <= 1e-10
        )


@dataclass(eq=False)
class Transform1D:
    """A strictly increasing reparameterization of an interval that fixes
    both endpoints, supplied with its closed-form inverse.
    """

    forward: Callable[[float], float]
    inverse: Callable[[float], float]
    domain: Interval = UNIT_INTERVAL
    _diagnostics: TransformDiagnostics | None = field(default=None, repr=False)

    def validate(self) -> TransformDiagnostics:
        diag = validate_transform(self, self.domain)
        self._diagnostics = diag
        return diag

    def require_valid(self):
        if self._diagnostics is None:
            self.validate()
        if not self._diagnostics.passed:
            raise ValueError(f"invalid transform: {self._diagnostics}")


def identity_transform(iv: Interval = UNIT_INTERVAL) -> Transform1D:
    return Transform1D(lambda x: x, lambda x: x, iv)


def validate_transform(tau: Transform1D, iv: Interval) -> TransformDiagnostics:
    """Check endpoint fixing, monotonicity, and inverse round-trip on _GRID points."""
    xs = np.linspace(iv.alpha, iv.beta, _GRID)
    fx = np.array([tau.forward(x) for x in xs])
    residuals = (float(fx[0] - iv.alpha), float(fx[-1] - iv.beta))
    min_diff = float(np.min(np.diff(fx)))
    # round-trip only where forward stays inside the interval
    inside = np.clip(fx, iv.alpha, iv.beta)
    roundtrip = np.array([tau.inverse(v) for v in inside])
    max_rt = float(np.max(np.abs(roundtrip - xs))) if min_diff > 0 else math.inf
    return TransformDiagnostics(residuals, min_diff, max_rt)


def c_tau(f: Callable[[float], float], tau: Transform1D, n: int, x: float) -> float:
    """Bernstein operator conjugated by tau on [0, 1]: nodes are pulled back
    through the inverse and the basis is evaluated at tau(x).
    """
    return c_tau_shifted(f, tau, n, x, UNIT_INTERVAL)


def c_tau_shifted(
    f: Callable[[float], float], tau: Transform1D, n: int, x: float, iv: Interval
) -> float:
    """Shifted variant of c_tau on an arbitrary interval: the Bernstein
    operator of f o tau^-1 on iv, evaluated at tau(x)."""
    tau.require_valid()
    if n == 0 and not iv.contains(x):
        raise ValueError(f"{x} outside [{iv.alpha}, {iv.beta}]")
    return bernstein_shifted(lambda t: f(tau.inverse(t)), n, tau.forward(x), iv)
