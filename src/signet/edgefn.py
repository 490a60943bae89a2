"""Static nonlinear edge functions and their passivity-based sign classes.

An edge function is a map mu = psi(zeta) of the tension across one edge,
with psi(0) = 0.  Besides evaluation, every kind exposes its cocontent (the
integral of psi from 0 to zeta), its derivative where defined, and its set
of equilibria (the zeros of psi around the origin).  Each of the first three
is written once, as a numpy expression that applies elementwise to a float
or an array of tensions, so grids, trajectories and whole networks are
evaluated in one call.  Sign classification follows the passive/active
dichotomy: an edge is positive when zeta * psi(zeta) >= 0 everywhere on a
verification grid, strictly positive when zeta * psi(zeta) >= eps * zeta**2
for some eps > 0, and mirrored for negative.  Classification is grid-based,
not symbolic: arbitrary user functions admit no decision procedure, so every
verdict records the grid it was checked on.

The grid certificates (sign class and monotonicity) are reducers over
chunks of functions: a network is checked one kind group at a time, in
chunks of edges whose block of grid values has a bounded size, and a lone
function is the one-chunk case.  A grid on which zeta * psi(zeta) or psi
is not finite (huge parameters overflow) is rejected with ValidationError.

Power laws raise through ``power``, so a lone function, a stacked kind group
and a chunk of grid rows agree bit for bit.
"""

from __future__ import annotations

import csv
import enum
import functools
import math
from dataclasses import dataclass, field, fields
from typing import Optional, Union

import numpy as np

from .errors import InvalidGrid, NotAnInterval, ValidationError

# Grid values with |zeta| below this are treated as the origin when
# computing strictness margins (eps = inf of zeta*psi/zeta**2 off zero).
_ORIGIN_TOL = 1e-9
# |values| at or below this count as zero in grid scans.
_ZERO_TOL = 1e-12

# Argument and result of the elementwise methods of edge and node kinds.
FloatOrArray = Union[float, np.ndarray]
# Most samples of any grid, as many as a simulation may record rows; a
# larger count would allocate gigabytes of grid values.
_MAX_SAMPLES = 10**6


@dataclass(frozen=True)
class GridSpec:
    """Symmetric grid: ``samples`` points over [-n, n]; defaults for all grids."""

    n: float = 100.0
    samples: int = 2001

    def validate(self, min_samples: int = 101, odd: bool = False) -> None:
        # Certificates and margins square grid points, so n * n must stay
        # finite too; a sweep needs an odd count, to sample zero exactly.
        if not (self.n > 0 and math.isfinite(self.n * self.n)):
            raise InvalidGrid(
                f"grid half-width must be positive and its square finite, "
                f"got {self.n}"
            )
        if self.samples < min_samples or (odd and self.samples % 2 == 0):
            raise InvalidGrid(
                f"grid needs {'an odd count of ' if odd else ''}at least "
                f"{min_samples} samples, got {self.samples}"
            )
        if self.samples > _MAX_SAMPLES:
            raise InvalidGrid(
                f"grid allows at most {_MAX_SAMPLES} samples, got {self.samples}"
            )

    def points(self) -> np.ndarray:
        """The samples; an odd count has an exact zero in the middle."""
        z = np.linspace(-self.n, self.n, self.samples)
        if self.samples % 2:
            z[self.samples // 2] = 0.0
        return z


# Where an edge function without a closed-form zero set is scanned for zeros.
_SCAN = GridSpec(samples=8001)


class SignLabel(enum.Enum):
    STRICTLY_POSITIVE = "strictly_positive"
    POSITIVE = "positive"
    STRICTLY_NEGATIVE = "strictly_negative"
    NEGATIVE = "negative"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class SignClass:
    """Strongest sign label supported by a verification grid.

    ``margin`` is the strictness constant (0 when the class is not strict)
    and ``witness`` is a grid point ruling out the next-stronger label
    (None when no stronger label exists to rule out).
    """

    label: SignLabel
    margin: float
    witness: Optional[float]
    grid: GridSpec

    @property
    def is_positive(self) -> bool:
        return self.label in (SignLabel.POSITIVE, SignLabel.STRICTLY_POSITIVE)

    @property
    def is_strictly_positive(self) -> bool:
        return self.label is SignLabel.STRICTLY_POSITIVE


@dataclass(frozen=True)
class EquilibriaInterval:
    """Closed interval [lower, upper] containing 0 where psi vanishes.

    ``lower <= 0 <= upper``; both are +-inf for identically zero functions.
    """

    lower: float
    upper: float

    def __post_init__(self):
        if not (self.lower <= 0.0 <= self.upper):
            raise ValidationError("equilibria interval must contain the origin")

    def contains(self, value: float, tol: float = 0.0) -> bool:
        return self.lower - tol <= value <= self.upper + tol


@dataclass(frozen=True)
class MonotonicityReport:
    """Grid verdict on monotonicity plus a surjectivity heuristic.

    ``unbounded`` records whether |psi| is still growing at both grid ends,
    a cheap stand-in for psi -> +-inf as zeta -> +-inf.
    """

    nondecreasing: bool
    strictly: bool
    min_slope: float
    unbounded: bool
    grid: GridSpec


def power(base: FloatOrArray, exponent: FloatOrArray) -> FloatOrArray:
    """base ** exponent through numpy's general power loop (0-d calls aside):
    numpy takes an ulp-different square-root path for 0.5 when one exponent
    value covers a loop, so an exponent shaped unlike the base is copied."""
    if getattr(exponent, "shape", ()) != getattr(base, "shape", ()):
        exponent = np.broadcast_to(exponent, np.broadcast(base, exponent).shape).copy()
    return base ** exponent


@functools.cache
def _parameter_checks(kind: type) -> tuple:
    """(field, test, message) of each check on a dataclass kind's parameters,
    in the order they run: every float field finite, then the kind's own
    ``_bounds``.  A test maps an array of values to an array of passes."""
    finite = tuple(
        (f.name, np.isfinite, f"{kind.__name__}.{f.name} must be finite, got {{!r}}")
        for f in fields(kind)
        if f.type in ("float", float)
    )
    return finite + getattr(kind, "_bounds", ())


def parameter_violation(kind: type, columns) -> Optional[tuple[int, str]]:
    """Row and message of the first invalid row of a kind's parameters.

    ``columns`` maps every checked field name to a 1-d array with one value
    per row.  The message names the first check that the row fails, in the
    order of ``_parameter_checks``.  None when every row passes.
    """
    checks = _parameter_checks(kind)
    if not checks:
        return None
    failed = [~test(columns[name]) for name, test, _ in checks]
    bad = np.logical_or.reduce(failed)
    if not bad.any():
        return None
    row = int(bad.argmax())
    name, _, message = next(c for c, f in zip(checks, failed) if f[row])
    return row, message.format(columns[name][row].item())


def check_parameters(obj) -> None:
    """ValidationError from the first failed check of one object's parameters."""
    columns = {
        name: np.array([getattr(obj, name)]) for name, _, _ in _parameter_checks(type(obj))
    }
    found = parameter_violation(type(obj), columns)
    if found is not None:
        raise ValidationError(found[1])


def fill_unchecked(objs, columns) -> None:
    """Set the fields of empty objects of one dataclass kind, one object per
    row of parameter columns that ``parameter_violation`` passed, without
    ``__post_init__``; the fields hold the rows' values as Python floats."""
    for name, column in columns.items():
        for obj, value in zip(objs, np.asarray(column, dtype=float).tolist()):
            object.__setattr__(obj, name, value)


class EdgeFunction:
    """Base class for static edge functions.  Instances are immutable.

    ``__call__``, ``cocontent`` and ``derivative`` take a float or an array
    of tensions and work elementwise.  A network evaluates all edges of one
    dataclass kind whose fields are declared ``float`` with one call on an
    instance whose fields are arrays over those edges, built without
    ``__post_init__``; such kinds must broadcast their parameters against
    the tensions.  Their parameter checks are the class attribute
    ``_bounds`` plus finiteness, run by ``parameter_violation`` on one
    object here and on a column per field when a config is read.
    """

    def __post_init__(self):
        check_parameters(self)

    def __call__(self, zeta: FloatOrArray) -> FloatOrArray:
        raise NotImplementedError

    def cocontent(self, zeta: FloatOrArray) -> FloatOrArray:
        """Integral of the function from 0 to zeta (always 0 at zeta = 0)."""
        raise NotImplementedError

    def derivative(self, zeta: FloatOrArray) -> FloatOrArray:
        """Slope at zeta; infinite at isolated points (power laws at 0)."""
        raise NotImplementedError

    def equilibria(self) -> EquilibriaInterval:
        """Zero interval around the origin; NotAnInterval if there is none."""
        return _equilibria_by_scan(self)


@dataclass(frozen=True)
class Linear(EdgeFunction):
    """mu = w * zeta."""

    w: float

    def __call__(self, zeta: FloatOrArray) -> FloatOrArray:
        return self.w * zeta

    def cocontent(self, zeta: FloatOrArray) -> FloatOrArray:
        return 0.5 * self.w * zeta * zeta

    def derivative(self, zeta: FloatOrArray) -> FloatOrArray:
        return self.w * np.ones_like(zeta)

    def equilibria(self) -> EquilibriaInterval:
        if self.w == 0.0:
            return EquilibriaInterval(-math.inf, math.inf)
        return EquilibriaInterval(0.0, 0.0)


@dataclass(frozen=True)
class DeadZone(EdgeFunction):
    """mu = w * sign(zeta) * max(|zeta| - band, 0).

    Flat (zero) on [-band, band]; the classic sensor dead zone.  Positive but
    not strictly positive for w > 0.  Band 0 is the linear map w * zeta,
    slope w included; the constructor rejects it, and only a network's
    stacked group of linear and dead-zone edges holds it.
    """

    w: float
    band: float = 1.0
    _bounds = (("band", lambda band: band > 0, "dead zone band must be > 0, got {}"),)

    def __call__(self, zeta: FloatOrArray) -> FloatOrArray:
        return np.copysign(np.maximum(np.abs(zeta) - self.band, 0.0), zeta) * self.w

    def cocontent(self, zeta: FloatOrArray) -> FloatOrArray:
        excess = np.maximum(np.abs(zeta) - self.band, 0.0)
        return 0.5 * self.w * excess * excess

    def derivative(self, zeta: FloatOrArray) -> FloatOrArray:
        return self.w * ((np.abs(zeta) > self.band) | np.logical_not(self.band))

    def equilibria(self) -> EquilibriaInterval:
        if self.w == 0.0:
            return EquilibriaInterval(-math.inf, math.inf)
        return EquilibriaInterval(-self.band, self.band)


@dataclass(frozen=True)
class PowerSign(EdgeFunction):
    """mu = w * sign(zeta) * |zeta| ** alpha with 0 < alpha < 1.

    Strictly monotone with unbounded range for w > 0; drives integrator
    networks to agreement in finite time.  Not Lipschitz at the origin, where
    the derivative is infinite (NaN when w = 0) and numpy warns of a division
    by zero unless the caller silences it.
    """

    w: float
    alpha: float
    _bounds = ((
        "alpha", lambda alpha: (0.0 < alpha) & (alpha < 1.0),
        "power exponent must lie in (0, 1), got {}",
    ),)

    def __call__(self, zeta: FloatOrArray) -> FloatOrArray:
        return np.copysign(power(np.abs(zeta), self.alpha), zeta) * self.w

    def cocontent(self, zeta: FloatOrArray) -> FloatOrArray:
        return self.w / (1.0 + self.alpha) * np.abs(zeta) ** (1.0 + self.alpha)

    def derivative(self, zeta: FloatOrArray) -> FloatOrArray:
        return self.w * self.alpha * np.abs(zeta) ** (self.alpha - 1.0)

    def equilibria(self) -> EquilibriaInterval:
        if self.w == 0.0:
            return EquilibriaInterval(-math.inf, math.inf)
        return EquilibriaInterval(0.0, 0.0)


@dataclass(frozen=True)
class Sinusoid(EdgeFunction):
    """mu = a * sin(zeta): neither positive nor negative, zeros at k*pi."""

    a: float

    def __call__(self, zeta: FloatOrArray) -> FloatOrArray:
        return self.a * np.sin(zeta)

    def cocontent(self, zeta: FloatOrArray) -> FloatOrArray:
        return self.a * (1.0 - np.cos(zeta))

    def derivative(self, zeta: FloatOrArray) -> FloatOrArray:
        return self.a * np.cos(zeta)

    def equilibria(self) -> EquilibriaInterval:
        if self.a == 0.0:
            return EquilibriaInterval(-math.inf, math.inf)
        raise NotAnInterval("sinusoid zeros are isolated points, not an interval")


@dataclass(frozen=True)
class Negated(EdgeFunction):
    """mu = -inner(zeta); flips positive classes to negative ones."""

    inner: EdgeFunction

    def __call__(self, zeta: FloatOrArray) -> FloatOrArray:
        return -self.inner(zeta)

    def cocontent(self, zeta: FloatOrArray) -> FloatOrArray:
        return -self.inner.cocontent(zeta)

    def derivative(self, zeta: FloatOrArray) -> FloatOrArray:
        return -self.inner.derivative(zeta)

    def equilibria(self) -> EquilibriaInterval:
        return self.inner.equilibria()


@dataclass(frozen=True)
class Sum(EdgeFunction):
    """Pointwise sum of edge functions."""

    terms: tuple[EdgeFunction, ...]

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValidationError("sum needs at least one term")
        object.__setattr__(self, "terms", terms)

    def __call__(self, zeta: FloatOrArray) -> FloatOrArray:
        return sum(t(zeta) for t in self.terms)

    def cocontent(self, zeta: FloatOrArray) -> FloatOrArray:
        # Integration is linear, so the sum of the terms' closed forms is
        # exact; no quadrature needed.
        return sum(t.cocontent(zeta) for t in self.terms)

    def derivative(self, zeta: FloatOrArray) -> FloatOrArray:
        return sum(t.derivative(zeta) for t in self.terms)

    def equilibria(self) -> EquilibriaInterval:
        # A sum of linear maps is one; the scan cannot see past its ends.
        w = linear_coefficient(self)
        return _equilibria_by_scan(self) if w is None else Linear(w).equilibria()


@dataclass(frozen=True)
class SampledTable(EdgeFunction):
    """Piecewise-linear interpolant through sampled (zeta, mu) points.

    Linear interpolation keeps monotone samples monotone, which matters when
    equivalent edge functions are re-used as edge functions.  Outside the
    sampled range the end segments are extended linearly.  The table must
    bracket zeta = 0 and interpolate to mu = 0 there.
    """

    zetas: tuple[float, ...]
    mus: tuple[float, ...]
    # Filled in at construction: the knots after the first, whose
    # right-sided search sorts a tension to the knot starting its segment
    # (knot 0 below the range, the last knot beyond it); four arrays with
    # one entry per knot: the knot, its value, the slope to its right (the
    # last slope repeated past the end) and the integral from the first
    # knot; and that integral at zeta = 0.
    _breaks: np.ndarray = field(default=None, repr=False, compare=False)
    _knots: tuple = field(default=(), repr=False, compare=False)
    _zero_cocontent: float = field(default=0.0, repr=False, compare=False)

    def __post_init__(self):
        za = np.array(self.zetas, dtype=float)
        ma = np.array(self.mus, dtype=float)
        if za.shape != ma.shape or za.ndim != 1:
            raise ValidationError("table zeta and mu columns differ in length")
        if za.size < 2:
            raise ValidationError("table needs at least two sample points")
        if not (np.isfinite(za).all() and np.isfinite(ma).all()):
            raise ValidationError("table zeta and mu values must be finite")
        if np.any(np.diff(za) <= 0.0):
            raise ValidationError("table zeta values must be strictly increasing")
        if not (za[0] <= 0.0 <= za[-1]):
            raise ValidationError("table must bracket zeta = 0")
        object.__setattr__(self, "zetas", tuple(za.tolist()))
        object.__setattr__(self, "mus", tuple(ma.tolist()))
        slope = np.diff(ma) / np.diff(za)
        prefix = np.cumsum(0.5 * (ma[:-1] + ma[1:]) * np.diff(za))
        knots = (za, ma, np.append(slope, slope[-1]), np.insert(prefix, 0, 0.0))
        for a in knots:
            a.flags.writeable = False
        object.__setattr__(self, "_breaks", za[1:])
        object.__setattr__(self, "_knots", knots)
        object.__setattr__(self, "_zero_cocontent", float(self._integral(0.0)))
        _check_vanishes_at_origin(self)

    def __call__(self, zeta: FloatOrArray) -> FloatOrArray:
        z, m, s, _ = self._knots
        i = self._breaks.searchsorted(zeta, side="right")
        return m[i] + s[i] * (zeta - z[i])

    def _integral(self, zeta: FloatOrArray) -> FloatOrArray:
        """Integral of the interpolant from the first knot to zeta."""
        z, m, s, prefix = self._knots
        i = self._breaks.searchsorted(zeta, side="right")
        d = zeta - z[i]
        return prefix[i] + m[i] * d + 0.5 * s[i] * d * d

    def cocontent(self, zeta: FloatOrArray) -> FloatOrArray:
        return self._integral(zeta) - self._zero_cocontent

    def derivative(self, zeta: FloatOrArray) -> FloatOrArray:
        return self._knots[2][self._breaks.searchsorted(zeta, side="right")]

    def negated(self) -> "SampledTable":
        """The table of -psi, made from these validated knots without checking
        them again.  Negation is exact, so each knot array equals (==) the
        one that the negated samples give, and each value that of
        ``Negated(self)``."""
        z, m, s, prefix = self._knots
        knots = (z, -m, -s, -prefix)
        for a in knots[1:]:
            a.flags.writeable = False
        neg = object.__new__(SampledTable)
        for name, value in (
            ("zetas", self.zetas), ("mus", tuple(knots[1].tolist())),
            ("_breaks", self._breaks), ("_knots", knots),
            ("_zero_cocontent", -self._zero_cocontent),
        ):
            object.__setattr__(neg, name, value)
        return neg

    def equilibria(self) -> EquilibriaInterval:
        z, m, s, _ = self._knots
        # An end segment heading toward zero crosses it past the table's end.
        if (abs(m[0]) > _ZERO_TOL and np.sign(s[0]) == np.sign(m[0])) or (
            abs(m[-1]) > _ZERO_TOL and np.sign(s[-1]) == -np.sign(m[-1])
        ):
            raise NotAnInterval("an end segment extends across zero")
        return _zero_set(z, m)

    def save_csv(self, dest) -> None:
        """Write the knots as ``zeta,mu`` CSV rows with 17 significant digits.

        ``dest`` is a path or an open text file.
        """
        if not hasattr(dest, "write"):
            with open(dest, "w", newline="") as fh:
                return self.save_csv(fh)
        writer = csv.writer(dest, lineterminator="\n")
        writer.writerow(["zeta", "mu"])
        for z, m in zip(self.zetas, self.mus):
            writer.writerow([format(z, ".17g"), format(m, ".17g")])

    @classmethod
    def load_csv(cls, path) -> "SampledTable":
        """ValidationError when the file cannot be read as ``zeta,mu`` rows."""
        zetas, mus = [], []
        try:
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header is None or [h.strip() for h in header[:2]] != ["zeta", "mu"]:
                    raise ValidationError(f"{path}: expected header 'zeta,mu'")
                for row in filter(None, reader):
                    zetas.append(float(row[0]))
                    mus.append(float(row[1]))
        except (OSError, ValueError, IndexError, csv.Error) as exc:
            raise ValidationError(f"{path}: {exc}") from exc
        return cls(tuple(zetas), tuple(mus))


def _check_vanishes_at_origin(f: EdgeFunction) -> None:
    if abs(f(0.0)) > _ZERO_TOL:
        raise ValidationError(f"edge function must vanish at 0, got {f(0.0)!r}")


def classify_sign(f: EdgeFunction, grid: GridSpec) -> SignClass:
    """Grid-based passivity classification of an edge function.

    Tests zeta * psi(zeta) over the grid: nonnegative everywhere gives
    positive, with a quadratic margin eps = min(zeta*psi/zeta**2) > 0
    upgrading to strictly positive; mirrored for negative; sign changes give
    indefinite.  The verdict is advisory and records the grid used.  This
    is the one-function case of ``classify_signs``.
    """
    _check_vanishes_at_origin(f)
    return classify_signs(_alone(f), 1, grid)[0]


def _alone(f: EdgeFunction) -> list:
    """The chunks of a single function: its one position, the function."""
    return [(np.zeros(1, dtype=np.intp), f)]


def _require_finite(finite: np.ndarray, what: str, grid: GridSpec) -> None:
    """ValidationError naming the first function whose grid values overflow."""
    bad = np.flatnonzero(~finite)
    if bad.size:
        raise ValidationError(
            f"edge function {bad[0] + 1}: {what} is not finite on the grid "
            f"over [-{grid.n:g}, {grid.n:g}]"
        )


# Sign labels in the order classify_signs decides them.
_LABEL_ORDER = (
    SignLabel.STRICTLY_POSITIVE,
    SignLabel.POSITIVE,
    SignLabel.STRICTLY_NEGATIVE,
    SignLabel.NEGATIVE,
    SignLabel.INDEFINITE,
)


@np.errstate(all="ignore")
def classify_signs(chunks, count: int, grid: GridSpec) -> tuple[SignClass, ...]:
    """``classify_sign`` of ``count`` edge functions, a chunk at a time.

    ``chunks`` yields (positions, fn) pairs whose integer arrays of
    positions cover 0 .. count - 1 once.  Called on the (1, samples) row of
    grid points, fn gives a block with one row of values per position, or
    one row standing for all of them.  The caller keeps blocks small.  Each
    row gets the label, margin and witness that its function gets alone, in
    one pass that evaluates each chunk once: it keeps the sign tests and the
    least and greatest zeta*psi/zeta**2 of every row and, for each row that
    is neither zero on the grid nor strict, the first zero product off the
    origin and the first least product, from which the witness is chosen
    after the pass.  Raises ValidationError when some zeta * psi(zeta) on
    the grid is not finite, which happens when huge parameters overflow.
    """
    grid.validate(min_samples=101)
    z = grid.points()
    # Rounding guard: products within 1e-12 of zero (relative to zeta**2)
    # count as zero, so exact dead zones classify cleanly.
    tol = 1e-12 * (1.0 + z * z)
    neg_tol = -tol
    off_origin = np.abs(z) > _ORIGIN_TOL
    # zeta**2 off the origin and NaN on it, which fmin and fmax skip.
    z_sq = np.where(off_origin, z**2, np.nan)
    finite, pos_ok, neg_ok = (np.ones(count, dtype=bool) for _ in range(3))
    # Least and greatest zeta*psi/zeta**2 off the origin (NaN when no grid
    # point is): eps is the least, and the negative margin
    # min(-zeta*psi/zeta**2) is exactly -greatest.
    lo, hi = np.zeros(count), np.zeros(count)
    # Witness candidates as grid indices, -1 for none.
    first_zero, least = np.full(count, -1), np.full(count, -1)
    for positions, fn in chunks:
        p = z * fn(z[None, :])
        finite[positions] = np.isfinite(p).all(axis=1)
        pos_ok[positions] = pos = (p >= neg_tol).all(axis=1)
        neg_ok[positions] = neg = (p <= tol).all(axis=1)
        ratios = p / z_sq
        lo[positions] = low = np.fmin.reduce(ratios, axis=1)
        hi[positions] = high = np.fmax.reduce(ratios, axis=1)
        # Rows neither zero on the grid nor strict.
        rows = np.flatnonzero(~(pos & (neg | (low > 0.0)) | neg & (high < 0.0)))
        if rows.size:
            at = positions if len(p) == 1 else positions[rows]
            p = p[rows]
            hits = (np.abs(p) <= tol) & off_origin
            first_zero[at] = np.where(hits.any(axis=1), hits.argmax(axis=1), -1)
            least[at] = p.argmin(axis=1)
    _require_finite(finite, "zeta * psi(zeta)", grid)
    strict_pos = pos_ok & ~neg_ok & (lo > 0.0)
    strict_neg = neg_ok & ~pos_ok & (-hi > 0.0)
    # The last point when psi is zero on the grid, the first least product
    # when the class is indefinite, else the first zero product off the
    # origin (-1 when the class is strict).
    witness = np.select(
        [pos_ok & neg_ok, ~(pos_ok | neg_ok)], [z.size - 1, least], first_zero
    )
    labels = np.select([strict_pos, pos_ok, strict_neg, neg_ok], [0, 1, 2, 3], 4)
    margins = np.where(strict_pos, lo, np.where(strict_neg, -hi, 0.0))
    points = z.tolist()
    return tuple(
        SignClass(_LABEL_ORDER[c], m, None if i < 0 else points[i], grid)
        for c, m, i in zip(labels.tolist(), margins.tolist(), witness.tolist())
    )


def _zero_set(z: np.ndarray, vals: np.ndarray, refine=None) -> EquilibriaInterval:
    """Zero interval around the origin of a function sampled at increasing z:
    the zero samples must form one run holding a sample next to the origin,
    and the sign may change only across it (across the origin's segment when
    no sample is zero), else NotAnInterval.  An end of the run is
    ``refine(inside, outside)`` of its index and the next one out (-1 or
    z.size past the samples); without ``refine`` (table knots) it is its
    zero sample, or +-inf when the run holds the two knots at that end,
    since the flat end segment extends."""
    zero = np.abs(vals) <= _ZERO_TOL
    at = np.flatnonzero(zero)
    # The origin lies between samples left and left + 1.
    left = min(int(z[1:].searchsorted(0.0, side="right")), z.size - 2)
    if at.size:
        lo, hi = int(at[0]), int(at[-1])
        if hi - lo + 1 != at.size or not (lo <= left + 1 and left <= hi):
            raise NotAnInterval("zero set is not a single interval around 0")
        # Nonzero samples lo - 1 and lo sit on either side of the run.
        left = lo - 1
    if np.any(np.flatnonzero(np.diff(vals[~zero] > 0)) != left):
        raise NotAnInterval("function changes sign away from the origin")
    if not at.size:
        return EquilibriaInterval(0.0, 0.0)
    if refine is None:
        lower = -math.inf if lo == 0 < hi else float(z[lo])
        upper = math.inf if lo < hi == z.size - 1 else float(z[hi])
        return EquilibriaInterval(lower, upper)
    return EquilibriaInterval(refine(lo, lo - 1), refine(hi, hi + 1))


def _equilibria_by_scan(f: EdgeFunction) -> EquilibriaInterval:
    z = _SCAN.points()

    def refine(inside: int, outside: int) -> float:
        if not 0 <= outside < z.size:
            raise NotAnInterval(
                f"zeros reach the end of the scan at {z[inside]:g}, "
                "so where they end is unknown"
            )
        # Bisect the boundary between a zero of psi and a non-zero value.
        inside, outside = float(z[inside]), float(z[outside])
        for _ in range(80):
            mid = 0.5 * (inside + outside)
            if abs(f(mid)) <= _ZERO_TOL:
                inside = mid
            else:
                outside = mid
        return inside

    return _zero_set(z, f(z), refine)


def is_monotone_increasing(f: EdgeFunction, grid: GridSpec) -> MonotonicityReport:
    """Grid check that psi is nondecreasing, plus an unboundedness heuristic.

    The one-function case of ``monotonicity_reports``.
    """
    return monotonicity_reports(_alone(f), 1, grid)[0]


@np.errstate(all="ignore")
def monotonicity_reports(
    chunks, count: int, grid: GridSpec
) -> tuple[MonotonicityReport, ...]:
    """``is_monotone_increasing`` of ``count`` edge functions, a chunk at a
    time; ``chunks`` as for ``classify_signs``.  Raises ValidationError when
    some psi(zeta) on the grid is not finite."""
    grid.validate(min_samples=101)
    z = grid.points()
    steps = np.diff(z)
    # Still climbing in the outer 10% of the grid and nonzero at the ends.
    k = max(1, grid.samples // 10)
    finite, nondecreasing, strictly, unbounded = (
        np.ones(count, dtype=bool) for _ in range(4)
    )
    min_slope = np.zeros(count)
    for positions, fn in chunks:
        vals = fn(z[None, :])
        finite[positions] = np.isfinite(vals).all(axis=1)
        diffs = np.diff(vals, axis=1)
        size = np.abs(vals)
        tol = 1e-12 * (1.0 + size[:, :-1] + size[:, 1:])
        nondecreasing[positions] = (diffs >= -tol).all(axis=1)
        strictly[positions] = (diffs > tol).all(axis=1)
        min_slope[positions] = (diffs / steps).min(axis=1)
        first, last = vals[:, 0], vals[:, -1]
        unbounded[positions] = (
            (last > vals[:, -1 - k] + _ZERO_TOL) & (last > _ZERO_TOL)
            & (first < vals[:, k] - _ZERO_TOL) & (first < -_ZERO_TOL)
        )
    _require_finite(finite, "psi(zeta)", grid)
    return tuple(
        MonotonicityReport(*row, grid)
        for row in zip(
            nondecreasing.tolist(), strictly.tolist(), min_slope.tolist(),
            unbounded.tolist(),
        )
    )


def linear_coefficient(f: EdgeFunction) -> Optional[float]:
    """The scalar w when f is (a combination of) linear maps, else None."""
    if isinstance(f, Linear):
        return f.w
    if isinstance(f, Negated):
        inner = linear_coefficient(f.inner)
        return None if inner is None else -inner
    if isinstance(f, Sum):
        total = 0.0
        for t in f.terms:
            w = linear_coefficient(t)
            if w is None:
                return None
            total += w
        return total
    return None


def flip_conjugate(f: EdgeFunction) -> EdgeFunction:
    """The edge function seen from the opposite orientation: -psi(-zeta).

    Reversing an edge's orientation and conjugating its function this way
    leaves the network dynamics unchanged.  All analytic kinds here are odd,
    so they map to themselves; tables are renumbered explicitly.
    """
    if isinstance(f, SampledTable):
        zetas = tuple(-z for z in reversed(f.zetas))
        mus = tuple(-m for m in reversed(f.mus))
        return SampledTable(zetas, mus)
    if isinstance(f, Negated):
        return Negated(flip_conjugate(f.inner))
    if isinstance(f, Sum):
        return Sum(tuple(flip_conjugate(t) for t in f.terms))
    return f
