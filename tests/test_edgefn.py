"""Edge functions: evaluation, cocontent, equilibria, sign classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signet.edgefn import (
    DeadZone,
    EdgeFunction,
    EquilibriaInterval,
    GridSpec,
    Linear,
    Negated,
    PowerSign,
    SampledTable,
    SignLabel,
    Sinusoid,
    Sum,
    classify_sign,
    flip_conjugate,
    is_monotone_increasing,
    linear_coefficient,
    power,
)
from signet.errors import InvalidGrid, NotAnInterval, ValidationError
from signet.nodes import Saturating, SignPower

from conftest import reference_scan_equilibria, reference_table_equilibria

GRID = GridSpec(10.0, 1001)

ZOO = [
    Linear(2.0),
    Linear(-0.7),
    DeadZone(1.0, 1.0),
    DeadZone(0.5, 2.5),
    PowerSign(3.0, 0.4),
    PowerSign(2.0, 0.5),
    Sinusoid(1.0),
    Negated(PowerSign(1.0, 0.8)),
    Sum((Linear(0.5), DeadZone(1.0, 1.0))),
]


def test_eval_examples():
    assert DeadZone(1.0, 1.0)(1.5) == 0.5
    assert PowerSign(3.0, 0.4)(0.0) == 0.0
    assert Linear(0.5)(2.0) == 1.0
    assert Sinusoid(2.0)(math.pi / 2) == pytest.approx(2.0)


def test_every_kind_vanishes_at_origin():
    for f in ZOO:
        assert f(0.0) == 0.0
        assert f.cocontent(0.0) == 0.0


def test_batch_matches_scalar():
    # numpy's vectorized sin/cos/power may differ from its scalar path by
    # an ulp; a table has no transcendental functions and agrees exactly.
    rng = np.random.default_rng(3)
    z = rng.uniform(-20, 20, size=64)
    table = SampledTable((-2.0, 0.0, 1.0, 3.0), (-4.0, 0.0, 1.0, 2.0))
    for f in ZOO + [table, Negated(table)]:
        for method in ("__call__", "cocontent", "derivative"):
            scalar = [getattr(f, method)(float(v)) for v in z]
            np.testing.assert_array_max_ulp(getattr(f, method)(z), scalar, maxulp=2)


def test_cocontent_examples():
    assert Linear(0.5).cocontent(2.0) == 1.0
    assert Linear(1.0).cocontent(1.0) == 0.5
    # straight integral of the dead-zone ramp from band to 3
    assert DeadZone(1.0, 1.0).cocontent(3.0) == 2.0
    assert PowerSign(2.0, 0.5).cocontent(4.0) == pytest.approx(2 * 4.0**1.5 / 1.5)


def test_cocontent_derivative_finite_difference():
    # d/dz cocontent must reproduce the function itself (smooth points only).
    rng = np.random.default_rng(5)
    h = 1e-5
    smooth = [Linear(1.3), PowerSign(2.0, 0.5), Sinusoid(0.8),
              Sum((Linear(0.5), Sinusoid(1.0)))]
    for f in smooth:
        for z in rng.uniform(-10, 10, size=100):
            if abs(z) < 0.01:
                continue
            fd = (f.cocontent(z + h) - f.cocontent(z - h)) / (2 * h)
            assert abs(fd - f(z)) <= 1e-6


def test_dead_zone_cocontent_derivative_away_from_kinks():
    f = DeadZone(1.5, 1.0)
    h = 1e-5
    for z in np.linspace(-8, 8, 113):
        if min(abs(abs(z) - 1.0), abs(z)) < 1e-3:
            continue
        fd = (f.cocontent(z + h) - f.cocontent(z - h)) / (2 * h)
        assert abs(fd - f(z)) <= 1e-6


@given(st.floats(min_value=0.05, max_value=50.0))
@settings(max_examples=50, deadline=None)
def test_linear_classification_margin(w):
    c = classify_sign(Linear(w), GRID)
    assert c.label is SignLabel.STRICTLY_POSITIVE
    assert c.margin == pytest.approx(w, rel=1e-12)


def test_classification_examples():
    c = classify_sign(Linear(2.0), GRID)
    assert c.label is SignLabel.STRICTLY_POSITIVE and c.margin == pytest.approx(2.0)
    c = classify_sign(DeadZone(1.0, 1.0), GRID)
    assert c.label is SignLabel.POSITIVE
    assert c.witness is not None and abs(c.witness) <= 1.0
    assert classify_sign(Sinusoid(1.0), GRID).label is SignLabel.INDEFINITE
    assert classify_sign(Linear(-3.0), GRID).label is SignLabel.STRICTLY_NEGATIVE
    assert classify_sign(Negated(DeadZone(1.0, 1.0)), GRID).label is SignLabel.NEGATIVE


def test_classification_flips_under_negation():
    flip = {
        SignLabel.STRICTLY_POSITIVE: SignLabel.STRICTLY_NEGATIVE,
        SignLabel.POSITIVE: SignLabel.NEGATIVE,
        SignLabel.STRICTLY_NEGATIVE: SignLabel.STRICTLY_POSITIVE,
        SignLabel.NEGATIVE: SignLabel.POSITIVE,
        SignLabel.INDEFINITE: SignLabel.INDEFINITE,
    }
    for f in ZOO:
        direct = classify_sign(f, GRID)
        negated = classify_sign(Negated(f), GRID)
        assert negated.label is flip[direct.label]
        assert negated.margin == pytest.approx(direct.margin, abs=1e-15)


def test_positive_classes_have_nonnegative_cocontent():
    z = GRID.points()
    for f in ZOO:
        c = classify_sign(f, GRID)
        if c.is_positive:
            vals = np.array([f.cocontent(v) for v in z])
            assert np.all(vals >= -1e-15)
            if c.is_strictly_positive:
                assert np.all(vals[np.abs(z) > 1e-9] > 0.0)


def test_invalid_grids_rejected():
    with pytest.raises(InvalidGrid):
        classify_sign(Linear(1.0), GridSpec(-1.0, 1001))
    with pytest.raises(InvalidGrid):
        classify_sign(Linear(1.0), GridSpec(10.0, 51))


def test_odd_grid_points_sample_zero_exactly_example():
    # linspace puts the middle of this grid at 1.42e-14, not at zero.
    assert GridSpec(123.456, 11).points()[5] == 0.0


@given(n=st.floats(1e-6, 1e6), half=st.integers(1, 2000))
@settings(max_examples=200, deadline=None)
def test_odd_grid_points_sample_zero_exactly(n, half):
    samples = 2 * half + 1
    z = GridSpec(n, samples).points()
    assert z[half] == 0.0 and not np.signbit(z[half])
    reference = np.linspace(-n, n, samples)
    assert np.array_equal(np.delete(z, half), np.delete(reference, half))


def test_equilibria_examples():
    iv = DeadZone(1.0, 1.0).equilibria()
    assert (iv.lower, iv.upper) == (-1.0, 1.0)
    assert Linear(0.5).equilibria().upper == 0.0
    assert PowerSign(1.0, 0.3).equilibria().lower == 0.0
    whole = Sum((Linear(1 / 3), Negated(Linear(1 / 3)))).equilibria()
    assert (whole.lower, whole.upper) == (-math.inf, math.inf)
    with pytest.raises(NotAnInterval):
        Sinusoid(1.0).equilibria()


class Shifted(EdgeFunction):
    """z - 5: not an edge function, as it misses the origin, but equilibria
    is defined for any function."""

    def __call__(self, zeta):
        return zeta - 5.0


@pytest.mark.parametrize(
    "f",
    [
        # sin z + 0.1 z also vanishes near +-3.5 and +-8.4
        Sum((Sinusoid(1.0), Linear(0.1))),
        # no knot is zero, and the table changes sign near +-2 as well
        SampledTable((-3.0, -1.0, 1.0, 3.0), (1.0, -1.0, 1.0, -1.0)),
        # one zero, at a grid sample away from the origin
        Shifted(),
    ],
)
def test_equilibria_reject_sign_changes_away_from_origin(f):
    with pytest.raises(NotAnInterval):
        f.equilibria()


def test_equilibria_scan_refines_sum_of_dead_zones():
    iv = Sum((DeadZone(1.0, 1.0), DeadZone(1.0, 2.0))).equilibria()
    assert iv.lower == pytest.approx(-1.0, abs=1e-8)
    assert iv.upper == pytest.approx(1.0, abs=1e-8)


def test_monotonicity_reports():
    r = is_monotone_increasing(PowerSign(2.0, 0.5), GRID)
    assert r.nondecreasing and r.strictly and r.unbounded
    r = is_monotone_increasing(DeadZone(1.0, 1.0), GRID)
    assert r.nondecreasing and not r.strictly and r.unbounded
    r = is_monotone_increasing(Sinusoid(1.0), GRID)
    assert not r.nondecreasing
    # saturated table: monotone but flat at the ends
    z = np.linspace(-10, 10, 201)
    m = np.clip(z, -4, 4)
    r = is_monotone_increasing(SampledTable(tuple(z), tuple(m)), GRID)
    assert r.nondecreasing and not r.unbounded


def test_sampled_table_requires_zero_at_origin():
    with pytest.raises(ValidationError):
        SampledTable((-1.0, 1.0), (0.5, 1.5))


def test_sampled_table_interpolation_and_extrapolation():
    t = SampledTable((-2.0, 0.0, 1.0, 3.0), (-4.0, 0.0, 1.0, 2.0))
    assert t(1.0) == 1.0 and t(-2.0) == -4.0
    assert t(2.0) == pytest.approx(1.5)
    # linear extension with the end-segment slopes
    assert t(5.0) == pytest.approx(2.0 + 0.5 * 2.0)
    assert t(-3.0) == pytest.approx(-4.0 - 2.0)
    np.testing.assert_allclose(t(np.array([-3.0, 2.0, 5.0])), [-6.0, 1.5, 3.0])


def test_sampled_table_cocontent_matches_quadrature():
    rng = np.random.default_rng(9)
    z = np.sort(np.append(rng.uniform(-5, 5, size=16), 0.0))
    m = np.cumsum(rng.uniform(-1, 1, size=17))
    m -= np.interp(0.0, z, m)
    t = SampledTable(tuple(z), tuple(m))
    for target in rng.uniform(-4.5, 4.5, size=20):
        xs = np.linspace(0.0, target, 40001)
        ref = np.trapezoid(t(xs), xs)
        assert t.cocontent(target) == pytest.approx(ref, abs=1e-6)


def test_sampled_table_csv_roundtrip(tmp_path):
    t = SampledTable((-1.0, 0.0, 2.0), (-3.0, 0.0, 0.5))
    path = tmp_path / "table.csv"
    t.save_csv(path)
    back = SampledTable.load_csv(path)
    assert back.zetas == t.zetas and back.mus == t.mus


def test_sampled_table_equilibria_run():
    t = SampledTable((-3.0, -1.0, 0.0, 1.0, 3.0), (-2.0, 0.0, 0.0, 0.0, 2.0))
    iv = t.equilibria()
    assert (iv.lower, iv.upper) == (-1.0, 1.0)


_magnitudes = st.floats(0.01, 5.0)
_signs = st.sampled_from([-1.0, 1.0])
# Zero samples: exact zeros and values inside the 1e-12 zero tolerance.
_zero_values = st.sampled_from([0.0, -0.0, 1e-13, -5e-13])


@st.composite
def origin_crossing_tables(draw):
    """Tables whose zero knots form one run at the origin and whose other
    knots take one sign left of the run and one right of it."""
    left = sorted(set(draw(st.lists(st.floats(-5.0, -0.1), min_size=1, max_size=4))))
    right = sorted(set(draw(st.lists(st.floats(0.1, 5.0), min_size=1, max_size=4))))
    origin = draw(st.booleans())
    # Zero knots next to the origin on each side.  Without a knot at 0 the
    # table vanishes there only if both neighbours are zero or neither is.
    run_left = draw(st.integers(0, len(left)))
    run_right = draw(st.integers(0, len(right)))
    crossing = not origin and (run_left == 0 or run_right == 0)
    if crossing:
        run_left = run_right = 0
    sign_left = draw(_signs)
    sign_right = -sign_left if crossing else draw(_signs)
    mus = [sign_left * draw(_magnitudes) for _ in range(len(left) - run_left)]
    mus += [draw(_zero_values) for _ in range(run_left + origin + run_right)]
    mus += [sign_right * draw(_magnitudes) for _ in range(len(right) - run_right)]
    if crossing:
        # The segment across the origin interpolates to 0 there.
        mus[len(left)] = mus[len(left) - 1] * right[0] / left[-1]
    return SampledTable(tuple(left + [0.0] * origin + right), tuple(mus))


_nondecreasing_terms = st.one_of(
    st.builds(Linear, st.floats(0.0, 3.0)),
    # bands beyond the scan's half-width of 100 zero the whole grid
    st.builds(DeadZone, st.floats(0.0, 3.0), st.floats(0.1, 120.0)),
    st.builds(PowerSign, st.floats(0.0, 3.0), st.floats(0.1, 0.9)),
    # a sinusoid under a steeper line keeps the sum increasing
    st.floats(-2.0, 2.0).flatmap(
        lambda a: st.floats(abs(a) + 0.05, 4.0).map(
            lambda w: Sum((Sinusoid(a), Linear(w)))
        )
    ),
)


@st.composite
def origin_crossing_sums(draw):
    """Sums of odd nondecreasing terms, possibly negated: every zero lies in
    one interval around the origin, and the sign changes only across it."""
    f = Sum(tuple(draw(st.lists(_nondecreasing_terms, min_size=1, max_size=3))))
    return Sum((Negated(f),)) if draw(st.booleans()) else f


def _or_not_an_interval(call):
    try:
        return call()
    except NotAnInterval:
        return NotAnInterval


@given(table=origin_crossing_tables(), f=origin_crossing_sums())
@settings(max_examples=200, deadline=None)
def test_zero_set_matches_former_routines(table, f):
    assert _or_not_an_interval(table.equilibria) == _or_not_an_interval(
        lambda: reference_table_equilibria(table)
    )
    assert _or_not_an_interval(f.equilibria) == _or_not_an_interval(
        lambda: reference_scan_equilibria(f)
    )


def test_table_zero_run_through_an_end_knot_pair_is_unbounded():
    # the flat end segment extends past the last knot, and so does the zero
    left = SampledTable((-1.0, 0.0, 1.0), (0.0, 0.0, 1.0))
    assert left.equilibria() == EquilibriaInterval(-math.inf, 0.0)
    right = SampledTable((-2.0, -1.0, 0.0, 1.0), (-1.0, 0.0, 0.0, 0.0))
    assert right.equilibria() == EquilibriaInterval(-1.0, math.inf)
    # one zero knot at the end: the end segment is not flat
    end_knot = SampledTable((-1.0, 0.0), (-1.0, 0.0))
    assert end_knot.equilibria() == EquilibriaInterval(0.0, 0.0)
    for t in (left, right, end_knot):
        assert t.equilibria() == reference_table_equilibria(t)


@pytest.mark.parametrize("table", [
    # the last segment, extended past z = 2, is 0 at z = 3
    SampledTable((-1.0, 0.0, 1.0, 2.0), (-1.0, 0.0, 2.0, 1.0)),
    # its mirror: the first segment, extended below z = -2, is 0 at z = -3
    SampledTable((-2.0, -1.0, 0.0, 1.0), (-1.0, -2.0, 0.0, 1.0)),
])
def test_table_end_segment_crossing_zero_is_not_an_interval(table):
    with pytest.raises(NotAnInterval):
        table.equilibria()
    with pytest.raises(NotAnInterval):
        reference_table_equilibria(table)


def test_scan_zero_run_reaching_the_scan_end_is_not_an_interval():
    # zero on [-150, 150], which the scan over [-100, 100] cannot see past
    f = Sum((DeadZone(1.0, 150.0), Linear(0.0)))
    assert f(200.0) == 50.0
    with pytest.raises(NotAnInterval):
        f.equilibria()
    with pytest.raises(NotAnInterval):
        reference_scan_equilibria(f)


@pytest.mark.parametrize("alpha", [0.5, 0.3])
def test_power_agrees_across_layouts(alpha):
    # numpy's square-root path for 0.5 differs from its general power loop
    # by an ulp at some of these points; power must never take it.
    z = np.abs(np.linspace(-3.0, 3.0, 2001))
    expected = z ** np.full(z.size, alpha)
    rows = [
        power(z, alpha),
        power(z, np.full(z.size, alpha)),
        power(z[:, None], np.array([alpha]))[:, 0],
        PowerSign(1.0, alpha)(z),
    ]
    for k in (1, 2, 3, 5):
        rows += list(power(z[None, :], np.full((k, 1), alpha)))
        rows += list(power(np.tile(z[:, None], (1, k)), np.full(k, alpha)).T)
    for row in rows:
        assert np.array_equal(row, expected)


def test_linear_coefficient_resolves_nesting():
    assert linear_coefficient(Linear(2.0)) == 2.0
    assert linear_coefficient(Negated(Linear(2.0))) == -2.0
    assert linear_coefficient(Sum((Linear(1.0), Negated(Linear(0.25))))) == 0.75
    assert linear_coefficient(DeadZone(1.0, 1.0)) is None


def test_flip_conjugate_matches_reversed_orientation():
    t = SampledTable((-1.0, 0.0, 2.0), (-3.0, 0.0, 0.5))
    c = flip_conjugate(t)
    for z in np.linspace(-3, 3, 41):
        assert c(z) == pytest.approx(-t(-z))
    # analytic kinds are odd, so conjugation returns an equivalent function
    for f in (Linear(1.5), DeadZone(1.0, 2.0), PowerSign(2.0, 0.5)):
        g = flip_conjugate(f)
        for z in np.linspace(-3, 3, 21):
            assert g(z) == pytest.approx(f(z))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Linear(math.nan),
        lambda: DeadZone(math.nan, 1.0),
        lambda: DeadZone(1.0, math.inf),
        lambda: PowerSign(math.inf, 0.5),
        lambda: Sinusoid(math.nan),
        lambda: SampledTable((-1.0, 0.0, math.nan), (-1.0, 0.0, 1.0)),
        lambda: SampledTable((-1.0, 0.0, 1.0), (-1.0, 0.0, math.nan)),
        lambda: Saturating(math.inf, 1.0),
        lambda: SignPower(math.inf, 0.5),
    ],
)
def test_non_finite_parameters_rejected(build):
    with pytest.raises(ValidationError):
        build()


def test_power_sign_parameter_validation():
    with pytest.raises(ValidationError):
        PowerSign(1.0, 1.5)
    with pytest.raises(ValidationError):
        DeadZone(1.0, -2.0)


def test_negated_table_equals_the_table_of_negated_samples():
    t = SampledTable((-2.0, -1.0, 0.0, 1.0, 3.0), (-1.0, 0.0, 0.0, 0.5, 0.5))
    neg = t.negated()
    assert neg == SampledTable(t.zetas, tuple(-m for m in t.mus))
    # Every value equals that of Negated(t) (a zero may differ in sign).
    z = np.array([-5.0, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 7.0])
    for method in ("__call__", "cocontent", "derivative"):
        assert np.array_equal(getattr(neg, method)(z), getattr(Negated(t), method)(z))
    assert neg.equilibria() == t.equilibria()
