import numpy as np
import pytest

from smolpois.transform import (
    FieldError,
    FieldF,
    FieldU,
    TouchDownError,
    f_to_u,
    pam_profile,
    pam_profiles,
    u_to_f,
)
from smolpois import transform


def cosine_u(n: int, amp: float = 0.5, mass: float = 1.0) -> FieldU:
    x = (np.arange(n) + 0.5) / n
    return FieldU.from_samples(mass + amp * np.cos(np.pi * x), mass)


class TestFields:
    def test_mass_normalization_exact(self):
        rng = np.random.default_rng(21)
        vals = 1.0 + rng.uniform(0.0, 2.0, 300)
        uf = FieldU.from_samples(vals, 2.5)
        assert uf.integral_error() <= 1e-14

    def test_integral_normalization_exact(self):
        rng = np.random.default_rng(22)
        vals = 0.5 + rng.uniform(0.0, 1.0, 300)
        ff = FieldF.from_samples(vals, 3.0)
        assert ff.integral_error() <= 1e-14

    def test_positivity_enforced(self):
        with pytest.raises(FieldError):
            FieldU.from_samples(np.array([1.0, -0.5, 2.0]), 1.0)
        with pytest.raises(FieldError):
            FieldF.from_samples(np.array([1.0, 0.0, 2.0]), 1.0)


class TestUToF:
    def test_constant_profile(self):
        uf = FieldU.from_samples(np.full(100, 2.0), 2.0)
        ff = u_to_f(uf, 120)
        assert np.allclose(ff.values, 0.5, atol=1e-13)
        assert ff.mass == 2.0

    def test_cosine_midpoint_against_root_finding_oracle(self):
        # with u = 1 + cos(pi x)/2 the cumulative is U(x) = x + sin(pi x)/(2 pi);
        # bisecting U(x*) = 1/2 gives x* = 0.3567021059...,
        # so f(1/2) = 1/u(x*) = 0.8213110981605156
        uf = cosine_u(4000)
        ff = u_to_f(uf, 4000)
        j = int(np.argmin(np.abs(ff.centers - 0.5)))
        assert ff.values[j] == pytest.approx(0.8213110981605156, abs=2e-4)

    def test_integral_is_one(self):
        ff = u_to_f(cosine_u(200), 300)
        assert ff.integral_error() <= 1e-14

    def test_order_preservation(self):
        # monotone decreasing u maps to monotone increasing f
        x = (np.arange(200) + 0.5) / 200
        uf = FieldU.from_samples(2.0 - x, 1.5)
        ff = u_to_f(uf, 200)
        assert np.all(np.diff(ff.values) > 0.0)


class TestFToU:
    def test_constant_profile(self):
        ff = FieldF.from_samples(np.full(80, 0.5), 2.0)
        uf = f_to_u(ff, 100)
        assert np.allclose(uf.values, 2.0, atol=1e-13)

    def test_reciprocal_relation(self):
        # linear f on [0,1]: u values are reciprocals of f at the mapped points
        n = 400
        y = (np.arange(n) + 0.5) / n
        ff = FieldF.from_samples(0.75 + 0.5 * y, 1.0)
        uf = f_to_u(ff, n)
        # check at the image of the midpoint: F(y) = int_0^y f
        ymid = 0.5
        x_mid = 0.75 * ymid + 0.25 * ymid**2
        i = int(np.argmin(np.abs(uf.centers - x_mid)))
        assert uf.values[i] == pytest.approx(1.0 / (0.75 + 0.5 * ymid), rel=1e-3)

    def test_touch_down_guard(self):
        vals = np.full(100, 1.0)
        vals[40] = 1e-9
        ff = FieldF(values=vals, mass=1.0)
        with pytest.raises(TouchDownError):
            f_to_u(ff, 100)


class TestRoundTrip:
    def test_second_order_convergence(self):
        errors = []
        for n in (50, 100, 200):
            uf = cosine_u(n)
            back = f_to_u(u_to_f(uf, 4 * n), n)
            errors.append(float(np.max(np.abs(back.values - uf.values))))
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.0 <= coarse / fine <= 5.0

    def test_mass_preserved(self):
        uf = cosine_u(128, amp=0.3, mass=2.0)
        back = f_to_u(u_to_f(uf, 512), 128)
        assert back.integral_error() <= 1e-14


class TestPamProfile:
    def test_integral_exactly_one(self):
        for delta in (0.1, 0.05, 0.01):
            ff = pam_profile(1.0, 4.0, delta, 400)
            assert ff.integral_error() <= 1e-14

    def test_value_near_origin(self):
        # continuum f0(0) = 2 (1 - delta^q)/delta + delta^q = 19.9981 at
        # M=1, q=4, delta=0.1
        ff = pam_profile(1.0, 4.0, 0.1, 100_000)
        assert ff.values[0] == pytest.approx(19.9981, rel=1e-3)

    def test_floor_beyond_spike(self):
        ff = pam_profile(1.0, 4.0, 0.1, 1000)
        beyond = ff.values[ff.centers > 0.1]
        assert np.allclose(beyond, beyond[0], rtol=1e-12)
        assert beyond[0] == pytest.approx(1e-4, rel=1e-2)

    def test_sup_bound(self):
        for delta in (0.2, 0.05, 0.005):
            ff = pam_profile(1.0, 4.0, delta, 400)
            assert ff.max_value <= 2.0 / delta * (1.0 + 1e-9)

    def test_delta_range_enforced(self):
        with pytest.raises(FieldError):
            pam_profile(1.0, 4.0, 1.5, 100)
        with pytest.raises(FieldError):
            pam_profile(1.0, 4.0, 0.0, 100)

    def test_delta_whose_square_underflows_is_named(self):
        # 1e-200**2 is 0.0, and the slope divided by it
        with pytest.raises(FieldError, match=r"^delta=1e-200 is too small: delta\^2 underflows to 0$"):
            pam_profiles(1.0, 4.0, [1e-200], 100)

    @pytest.mark.parametrize("delta", [1e-154, 1e-155, 1e-160])
    def test_delta_whose_slope_overflows_is_named(self, delta):
        # delta^2 is nonzero, and subnormal below about 1.5e-154, but 2 (1 - M delta^q) / delta^2
        # overflows, and the inf slope times the zero past the ramp was nan
        with pytest.raises(FieldError, match=rf"^delta={delta!r} is too small: the slope .* overflows$"):
            pam_profiles(1.0, 4.0, [delta], 400)

    def test_below_resolution_collapses_to_constant(self):
        # spike thinner than a cell: renormalization yields the flat profile
        ff = pam_profile(1.0, 4.0, 1e-4, 400)
        assert np.allclose(ff.values, 1.0, rtol=1e-12)


def _reference_profile(M, q, delta, n_y):
    """The samples of one spike profile as ``pam_profile`` built them before
    the rows were batched: ``FieldF.from_samples`` on one delta's ramp, with
    its checks."""
    cap = transform.delta_cap(M, q)
    if not (0.0 < delta < cap):
        raise FieldError(f"delta={delta!r} outside the admissible range (0, {cap!r})")
    y = (np.arange(n_y) + 0.5) * (M / n_y)
    floor = delta**q
    slope = 2.0 * (1.0 - M * floor) / delta**2
    field = FieldF.from_samples(slope * np.maximum(delta - y, 0.0) + floor, mass=M)
    if 2.0 * (1.0 - M * floor) / delta + floor > 2.0 / delta + 1e-12:
        raise FieldError("spike profile exceeded its analytic sup bound")
    return field.values


def _first_error(call):
    try:
        call()
    except FieldError as err:
        return str(err)
    return None


class TestPamProfiles:
    """A round of eight spike profiles in one array has, row by row, the
    bits of one profile at a time, and raises a FieldError when one of its
    deltas does."""

    @pytest.mark.parametrize("n_y", (400, 1600))
    @pytest.mark.parametrize("M", (0.1, 1.0, 5.0))
    @pytest.mark.parametrize("start", (1, 9, 25))
    def test_rows_equal_single_profiles(self, M, n_y, start):
        for q in (4.0, 6.2):
            deltas = [transform.delta_cap(M, q) * 2.0**-k / 2.0 for k in range(start, start + 8)]
            rows = pam_profiles(M, q, deltas, n_y)
            assert rows.shape == (8, n_y)
            for row, delta in zip(rows, deltas):
                assert row.tobytes() == pam_profile(M, q, delta, n_y).values.tobytes()
                assert row.tobytes() == _reference_profile(M, q, delta, n_y).tobytes()

    def test_single_profile_is_a_field(self):
        ff = pam_profile(1, 4.0, 0.1, 400)
        assert isinstance(ff, FieldF) and ff.mass == 1.0 and type(ff.mass) is float
        assert ff.values.shape == (400,)

    @pytest.mark.parametrize(
        "M, q, deltas, n_y, message",
        [
            (1.0, 4.0, [0.1, 0.05], 1, "f needs a 1D array of at least 2 samples"),
            (1.0, 4.0, [0.1, 0.05, 1.5, 0.01], 400, "delta=1.5 outside the admissible range (0, 0.8408964152537145)"),
            (1.0, 4.0, [0.0], 400, "delta=0.0 outside the admissible range (0, 0.8408964152537145)"),
            # delta^50 underflows to 0 at the third delta, before the one outside the range
            (1.0, 50.0, [2.0**-5, 2.0**-21, 2.0**-22, 1.5], 64, "f samples must be positive and finite"),
            # no delta inside the range: the range error comes before the sample count
            (1.0, 4.0, [1.5, 0.1], 1, "delta=1.5 outside the admissible range (0, 0.8408964152537145)"),
        ],
        ids=["samples", "range", "zero", "positive", "range-before-samples"],
    )
    def test_first_failing_delta_raises(self, M, q, deltas, n_y, message):
        # each delta alone raises the reference's message (the first failing
        # one raises ``message``); the whole round raises a FieldError, and
        # which delta's is left to regime._first_accepted, which reruns it
        errors = [_first_error(lambda: _reference_profile(M, q, delta, n_y)) for delta in deltas]
        assert next(filter(None, errors)) == message
        assert [_first_error(lambda: pam_profiles(M, q, [delta], n_y)) for delta in deltas] == errors
        assert [_first_error(lambda: pam_profile(M, q, delta, n_y)) for delta in deltas] == errors
        with pytest.raises(FieldError):
            pam_profiles(M, q, deltas, n_y)

    def test_sup_bound_checked(self, monkeypatch):
        # below cap = min(1, 2M, (2M)^(-1/q)) the bound always holds; a cap
        # of 1 admits delta > 2M, where the continuum sup exceeds 2/delta
        monkeypatch.setattr(transform, "delta_cap", lambda M, q: 1.0)
        message = "spike profile exceeded its analytic sup bound"
        assert _first_error(lambda: pam_profiles(0.01, 4.0, [0.015, 0.5], 400)) == message
        assert _first_error(lambda: _reference_profile(0.01, 4.0, 0.5, 400)) == message
        assert _first_error(lambda: _reference_profile(0.01, 4.0, 0.015, 400)) is None
