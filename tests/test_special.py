"""Special-function contracts, checked against an independent high-precision oracle."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from randsuite import erfc, erfc_inv, lower_igamc, normal_cdf, upper_igamc
from randsuite.errors import DomainError, NonFiniteInput
from randsuite.special import as_probability

mp.mp.dps = 40


def mp_erfc(z):
    return float(mp.erfc(z))


def mp_upper_igamc(a, x):
    return float(mp.gammainc(a, x, mp.inf, regularized=True))


class TestErfc:
    def test_worked_example_value(self):
        # frequency-test example: erfc(0.632455.../sqrt(2)) ~ 0.527089
        assert erfc(0.6324555320336759 / math.sqrt(2)) == pytest.approx(0.527089, abs=1e-6)

    def test_at_zero(self):
        assert erfc(0.0) == 1.0

    def test_at_one_vs_quadrature_oracle(self):
        # oracle: 2/sqrt(pi) * integral_1^inf exp(-u^2) du at 40 digits
        oracle = float(2 / mp.sqrt(mp.pi) * mp.quad(lambda u: mp.exp(-u ** 2), [1, mp.inf]))
        assert oracle == pytest.approx(0.157299, abs=1e-6)
        assert erfc(1.0) == pytest.approx(oracle, abs=1e-9)

    def test_spectral_example_erfc_value(self):
        # the classic d=2.147410 -> p=0.031761 pair
        assert erfc(2.147410 / math.sqrt(2)) == pytest.approx(0.031761, abs=1e-6)

    @pytest.mark.parametrize("z", np.linspace(-6.0, 6.0, 49).tolist())
    def test_matches_mpmath(self, z):
        assert erfc(z) == pytest.approx(mp_erfc(z), rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("z", np.linspace(-6.0, 6.0, 49).tolist())
    def test_reflection_vs_normal_cdf(self, z):
        assert abs(erfc(z) - 2.0 * normal_cdf(-z * math.sqrt(2))) < 1e-12

    @given(st.floats(min_value=-5.9, max_value=5.9))
    def test_symmetry(self, z):
        assert erfc(-z) == pytest.approx(2.0 - erfc(z), abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NonFiniteInput):
            erfc(bad)


class TestErfcInv:
    @pytest.mark.parametrize("p", [1e-6, 0.01, 0.1, 0.5, 1.0, 1.5, 1.999])
    def test_round_trip(self, p):
        assert erfc(erfc_inv(p)) == pytest.approx(p, rel=1e-12)

    def test_bisection_oracle(self):
        # independent route: bisect mpmath's erfc
        def bisect_inv(p):
            lo, hi = mp.mpf(-10), mp.mpf(10)
            for _ in range(200):
                mid = (lo + hi) / 2
                if mp.erfc(mid) > p:
                    lo = mid
                else:
                    hi = mid
            return float((lo + hi) / 2)

        for p in (0.01, 0.2, 0.9):
            assert erfc_inv(p) == pytest.approx(bisect_inv(p), abs=1e-12)

    def test_domain(self):
        for bad in (0.0, 2.0, -1.0, 2.5):
            with pytest.raises(DomainError):
                erfc_inv(bad)


class TestIgamc:
    def test_block_frequency_example(self):
        assert 1.0 - lower_igamc(1.5, 0.5) == pytest.approx(0.801252, abs=1e-6)

    def test_longest_run_example(self):
        assert 1.0 - lower_igamc(2.5, 3.994459 / 2) == pytest.approx(0.550214, abs=1e-6)

    @pytest.mark.parametrize("a", [0.5, 1.0, 4.5, 32.0])
    def test_zero_lower_limit(self, a):
        assert lower_igamc(a, 0.0) == 0.0

    @pytest.mark.parametrize("a", [0.5, 1.5, 4.5, 10.0, 50.0])
    @pytest.mark.parametrize("x", [0.0, 0.3, 2.0, 9.0, 60.0, 200.0])
    def test_complementarity(self, a, x):
        assert abs(lower_igamc(a, x) + upper_igamc(a, x) - 1.0) < 1e-12

    @pytest.mark.parametrize("a,x", [(1.5, 0.5), (2.5, 1.997), (4.5, 12.6), (32.0, 40.0)])
    def test_matches_mpmath(self, a, x):
        assert upper_igamc(a, x) == pytest.approx(mp_upper_igamc(a, x), rel=1e-12)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 30.0, 200)
        vals = [lower_igamc(3.0, x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            lower_igamc(0.0, 1.0)
        with pytest.raises(DomainError):
            lower_igamc(-1.0, 1.0)
        with pytest.raises(DomainError):
            upper_igamc(1.0, -0.5)
        with pytest.raises(DomainError):
            upper_igamc(math.nan, 1.0)


class TestNormalCdf:
    def test_center(self):
        assert normal_cdf(0.0) == 0.5

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 1.96, 2.5, 3.3, 4.1, 5.0])
    def test_reflection(self, x):
        assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)

    def test_quantile_1_96(self):
        # derived through the erfc relation Phi(x) = erfc(-x/sqrt(2)) / 2
        via_erfc = erfc(-1.96 / math.sqrt(2)) / 2.0
        assert via_erfc == pytest.approx(0.975002, abs=1e-6)
        assert normal_cdf(1.96) == pytest.approx(via_erfc, abs=1e-14)

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteInput):
            normal_cdf(math.nan)
        with pytest.raises(NonFiniteInput, match="inf"):
            normal_cdf(np.array([0.0, -math.inf]))

    def test_array_matches_scalar_calls(self):
        xs = np.linspace(-9.0, 9.0, 36).reshape(4, -1)
        out = normal_cdf(xs)
        assert isinstance(out, np.ndarray) and out.shape == xs.shape
        assert out.ravel().tolist() == [normal_cdf(x) for x in xs.ravel().tolist()]


class TestAsProbability:
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_in_range_passthrough(self, p):
        assert as_probability(p) == p

    def test_roundoff_snap(self):
        assert as_probability(-1e-15) == 0.0
        assert as_probability(1.0 + 1e-15) == 1.0

    @pytest.mark.parametrize("bad", [-1e-6, 1.0 + 1e-6, 2.0, math.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            as_probability(bad)
