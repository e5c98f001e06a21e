"""The incomplete gamma and beta ports against scipy.special.

The incomplete gamma functions must equal scipy's bit for bit at the
orders 1..20 (the branches scipy takes there are the ones ported), stay
within 1e-12 relative above them, and the log-factorial table must equal
gammaln(k + 1) bit for bit.  At scipy's own tail quantiles the upper
function must give the tail back.  The n-ball cap fraction is a continued
fraction, so it is held to a relative tolerance; every cap fraction must
also equal its one-element call bit for bit.
"""

import math

import numpy as np
import pytest
from scipy import special

from mcpdist import _special
from mcpdist.analytic import _PMF_HARD_CAP


def _branch_edges(k):
    # Where the Cephes igam/igamc branches switch, and a neighbour either side.
    edges = [0.5, 1.0, 1.1, float(k), 0.6 * k, 1.4 * k]
    return [e for x in edges for e in (np.nextafter(x, 0.0), x, np.nextafter(x, math.inf))]


@pytest.mark.parametrize("k", range(1, 21))
def test_incomplete_gamma_equals_scipy_bit_for_bit(k):
    x = np.concatenate([np.linspace(1e-4, 40.0, 4001), np.geomspace(1e-4, 1.2, 400),
                        _branch_edges(k), [0.0, math.inf]])
    if k == 1:
        # Only order 1 takes the Q series on (0.9, 1.1], where Cephes' expm1
        # and libm's differ in the last bit at a few points.
        x = np.concatenate([x, np.linspace(0.9, 1.1, 20_001)])
    lower = np.array([_special.gammainc(k, v) for v in x])
    upper = np.array([_special.gammaincc(k, v) for v in x])
    np.testing.assert_array_equal(lower, special.gammainc(k, x))
    np.testing.assert_array_equal(upper, special.gammaincc(k, x))


@pytest.mark.parametrize("k", [21, 50, 150, 199, 200, 201, 500, 1000, 4096])
def test_incomplete_gamma_near_scipy_at_high_orders(k):
    # Around x = k scipy switches to Temme's asymptotic series, which is not ported.
    x = k + math.sqrt(k) * np.linspace(-8.0, 8.0, 161)
    x = np.concatenate([x[x > 0.0], _branch_edges(k)])
    lower = np.array([_special.gammainc(k, v) for v in x])
    upper = np.array([_special.gammaincc(k, v) for v in x])
    for mine, ref in ((lower, special.gammainc(k, x)), (upper, special.gammaincc(k, x))):
        normal = ref > 1e-300
        np.testing.assert_allclose(mine[normal], ref[normal], rtol=1e-12, atol=0.0)
        assert np.all(np.abs(mine[~normal]) <= 1e-300)


def test_log_factorial_table_equals_gammaln_up_to_the_order_cap():
    k = np.arange(_PMF_HARD_CAP + 1)
    np.testing.assert_array_equal(_special.log_factorials(k.size), special.gammaln(k + 1.0))


def test_log_factorial_table_computes_each_entry_once(monkeypatch):
    # Growing counts extend one table: reaching the order cap in any steps
    # costs one lgam call per entry, and shorter counts read its prefix.
    calls, lgam = [], _special.lgam

    def counted(x):
        calls.append(x)
        return lgam(x)

    monkeypatch.setattr(_special, "lgam", counted)
    monkeypatch.setattr(_special, "_log_factorial_table", np.empty(0))
    full = _PMF_HARD_CAP + 1
    for count in [64, 1, 128, 65, 2048, 4096, full, 100, full]:
        table = _special.log_factorials(count)
        assert table.shape == (count,) and not table.flags.writeable
    assert sorted(calls) == [k + 1.0 for k in range(full)]
    assert table.tobytes() == np.array([lgam(k + 1.0) for k in range(full)]).tobytes()


@pytest.mark.parametrize("tail", [1e-4, 1e-15])
@pytest.mark.parametrize("k", [*range(1, 21), 50, 100, 1000, _PMF_HARD_CAP])
def test_inverse_near_scipy(k, tail):
    # Q at scipy's tail quantile gives the tail back: this reaches the far
    # upper tails (x up to 78 at order 20) that the grids above stop short of.
    x = special.gammainccinv(k, tail)
    upper = _special.gammaincc(k, x)
    assert upper == pytest.approx(special.gammaincc(k, x), rel=1e-14, abs=0.0)
    assert upper == pytest.approx(tail, rel=1e-12, abs=0.0)


def test_ports_reject_what_they_do_not_cover():
    with pytest.raises(ValueError):
        _special.gammainc(2.5, 1.0)
    with pytest.raises(ValueError):
        _special.gammaincc(0, 1.0)
    with pytest.raises(ValueError):
        _special.lgam(2.5)


@pytest.mark.parametrize("n", [4, 5, 8, 20, 100, 300])
def test_cap_fraction_near_scipy(n):
    a = (n + 1) / 2
    z = np.concatenate([np.linspace(0.0, 1.0, 2001), np.geomspace(1e-12, 1.0, 400),
                        1.0 - np.geomspace(1e-12, 1.0, 400), [(a + 1.0) / (a + 2.5)]])
    scaled, ref = _special.betainc_half_scaled(a, z), special.betainc(a, 0.5, z)
    # scipy's I_z underflows below ~1e-280 with its prefactor z^a; the
    # scaled value does not, and at z = 0 it is the limit 1 / (a B(a, 1/2)).
    normal = ref > 1e-280
    np.testing.assert_allclose(scaled[normal] * z[normal] ** a, ref[normal], rtol=1e-12, atol=0.0)
    assert scaled[0] == pytest.approx(1.0 / (a * special.beta(a, 0.5)), rel=1e-14)
    assert np.all((scaled > 0.0) & (scaled <= 1.0))


def test_cap_fraction_entries_equal_their_one_element_calls():
    # Each element stops at its own convergence, so no neighbour can move it.
    z = np.random.default_rng(5).uniform(0.0, 1.0, 300)
    z[::7] = np.nan
    for n in (4, 5, 20):
        table = _special.betainc_half_scaled((n + 1) / 2, z.reshape(30, 10))
        single = [_special.betainc_half_scaled((n + 1) / 2, z[i : i + 1])[0] for i in range(z.size)]
        np.testing.assert_array_equal(table.ravel(), single)
        assert np.isnan(table.ravel()[::7]).all()



def test_trimmed_cephes_helpers_see_only_their_domains(monkeypatch):
    # _expm1 keeps only Cephes' rational form and _log1pmx only its series,
    # both for |x| < 1/2.  _expm1's one caller is order 1's Q series near
    # x = 1 (log x on [1 / 1.1, 1.1], |x| <= 0.0954); _log1pmx's is the
    # Lanczos branch, which needs a >= 143 and |a - x| <= 0.4 a (|x| < 0.43),
    # at its widest at a = 200 and at the order cap.  A nan x stops before
    # either.
    seen = {"_expm1": [], "_log1pmx": []}
    for name, args in seen.items():
        def recorded(x, original=getattr(_special, name), args=args):
            args.append(x)
            return original(x)

        monkeypatch.setattr(_special, name, recorded)
    near_one = np.concatenate([np.linspace(0.909, 1.1, 2001), _branch_edges(1)])
    for k in [1, *range(140, 211), _PMF_HARD_CAP]:
        x = np.concatenate([np.linspace(0.0, 3.0 * k, 7), _branch_edges(k)])
        if k == 1:
            x = np.concatenate([x, near_one])
        for v in x:
            _special.gammainc(k, v)
            _special.gammaincc(k, v)
        assert math.isnan(_special.gammainc(k, math.nan))
        assert math.isnan(_special.gammaincc(k, math.nan))
    expm1, log1pmx = np.array(seen["_expm1"]), np.array(seen["_log1pmx"])
    assert not np.isnan(expm1).any() and not np.isnan(log1pmx).any()
    assert np.abs(expm1).max() <= 0.0954 and expm1.min() < -0.095 and expm1.max() > 0.095
    assert np.abs(log1pmx).max() < 0.43 and log1pmx.min() < -0.4 and log1pmx.max() > 0.35
