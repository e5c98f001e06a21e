"""The fixed-node lens kernel against an independent mpmath integration.

The reference integrates the scalar lens volume with mpmath's adaptive
tanh-sinh rule, split at the containment breakpoint |r - rd|, so it
shares nothing with the kernel but the lens formula itself.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcpdist import McpParams, h_coefficient, pgf_count_palm, q_weight
from mcpdist.analytic import log_pgf_count
from mcpdist.geometry import lens_share

mpmath = pytest.importorskip("mpmath")

DIMS = (1, 2, 3, 5, 8)
# (r, rd): r < rd, r > rd, r = rd, rd = 1000 r and r = 1000 rd
RADII = ((0.7, 1.3), (2.0, 0.8), (1.5, 1.5), (0.002, 2.0), (2000.0, 2.0))
REL, ABS = 1e-12, 1e-15


def reference(r, p):
    """h_0..h_6, q_0..q_4, g(0), g(0.5) and the Palm PGF at 0 and 0.5."""
    n, rd = p.n, p.rd
    v_n = math.pi ** (n / 2) / math.gamma(n / 2 + 1)

    # The 16 integrals below evaluate the lens on the same mpmath nodes.
    @functools.cache
    def t(x):
        # a cluster's mean daughter count in the probe ball, lambda_d A
        return p.mbar * lens_share(r, rd, float(x), n)

    def window(f):
        # lambda_p v_n * integral over [0, r + rd] of f(t) n x^(n-1) dx
        return float(p.lambda_p * v_n * mpmath.quad(
            lambda x: f(t(x)) * n * x ** (n - 1), [0, abs(r - rd), r + rd]))

    def palm(f):
        # integral over [0, rd] of f(t) n y^(n-1) / rd^n dy
        cuts = sorted({0.0, min(abs(r - rd), rd), rd})
        return float(mpmath.quad(lambda y: f(t(y)) * n * (y / rd) ** (n - 1) / rd, cuts))

    def poisson(k):
        # u^k e^(-u) / k!, with 0^0 = 1
        return lambda u: mpmath.power(u, k) * mpmath.exp(-u) / mpmath.factorial(k)

    g = {s: window(lambda u, s=s: mpmath.expm1((s - 1) * u)) for s in (0.0, 0.5)}
    palm_pgf = {
        s: math.exp(g[s]) * palm(lambda u, s=s: mpmath.exp((s - 1) * u)) for s in (0.0, 0.5)
    }
    return {
        "h": [window(poisson(k)) for k in range(7)],
        "q": [palm(poisson(j)) for j in range(5)],
        "g": g,
        "palm_pgf": palm_pgf,
    }


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("r, rd", RADII)
def test_kernel_matches_mpmath(n, r, rd):
    p = McpParams(lambda_p=0.3 / (r + rd) ** n, mbar=3.0, rd=rd, n=n)
    with mpmath.workdps(20):
        ref = reference(r, p)
    for k, want in enumerate(ref["h"]):
        assert h_coefficient(r, k, p) == pytest.approx(want, rel=REL, abs=ABS), ("h", k)
    for j, want in enumerate(ref["q"]):
        assert q_weight(r, j, p) == pytest.approx(want, rel=REL, abs=ABS), ("q", j)
    for s in (0.0, 0.5):
        assert log_pgf_count(s, r, p) == pytest.approx(ref["g"][s], rel=REL, abs=ABS), s
        assert pgf_count_palm(s, r, p) == pytest.approx(ref["palm_pgf"][s], rel=REL, abs=ABS), s


@given(
    r=st.floats(min_value=0.0, max_value=10.0),
    rd=st.floats(min_value=1e-3, max_value=10.0),
    n=st.one_of(st.integers(min_value=1, max_value=8), st.integers(min_value=9, max_value=1000)),
    x=st.lists(st.floats(min_value=0.0, max_value=25.0), min_size=1, max_size=20),
)
def test_lens_array_equals_scalar_calls(r, rd, n, x):
    shares = lens_share(r, rd, np.array(x), n)
    assert shares.shape == (len(x),)
    for xi, vi in zip(x, shares):
        scalar = lens_share(r, rd, xi, n)
        assert type(scalar) is float
        assert scalar == vi or (math.isnan(scalar) and math.isnan(vi))
