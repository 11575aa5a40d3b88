"""Special-function contracts, checked against an independent high-precision oracle."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

import randsuite as rs
from randsuite import erfc, erfc_inv, lower_igamc, normal_cdf, special, upper_igamc
from randsuite.cli import main
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

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteInput):
            erfc_inv(math.nan)

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


# The packages that the direct loads of SciPy's compiled modules stand in for.
STOOD_IN = ("scipy.special", "scipy.fft", "scipy.fft._pocketfft")
UFUNCS = ("erfc", "erfcinv", "gammainc", "gammaincc", "ndtr")
DESK_PLAN = Path(__file__).resolve().parents[1] / "plans" / "desk_biased_5q.json"

# Loads both accessors in a fresh interpreter, the direct load made to fail
# once a stand-in is in place when argv[1] is "fail", then imports the public
# packages.  Prints, as its last line, the stand-ins present when a load
# raised, the stand-ins and other modules beneath them left in sys.modules
# afterwards, and whether the public packages work and give the accessors'
# functions.
_LOADER_PROBE = """
import json, sys
import numpy as np
from randsuite import special
STOOD_IN = tuple(json.loads(sys.argv[2]))
def stand_ins():
    return [p for p in STOOD_IN if p in sys.modules and not hasattr(sys.modules[p], "__file__")]
stood_in = []
if sys.argv[1] == "fail":
    def failing(name):
        stood_in.extend(stand_ins())
        raise ImportError(name)
    special.import_module = failing
ufuncs, rfft = special._scipy_special(), special._scipy_fft()
left = stand_ins()
beneath = [m for m in sys.modules if m.startswith(STOOD_IN)]
import scipy.special, scipy.fft
with scipy.special.errstate(all="raise"):
    pass
x = np.linspace(-0.5, 0.5, 2 * 1001, dtype=np.float32).reshape(2, 1001)
print(json.dumps({
    "ufuncs": ufuncs.__name__, "stood_in": stood_in, "left": left, "beneath": beneath,
    "same": [getattr(ufuncs, f) is getattr(scipy.special, f) for f in json.loads(sys.argv[3])],
    "rfft": rfft(x).tobytes() == scipy.fft.rfft(x, axis=1).tobytes()}))
"""


@pytest.fixture
def fresh_loaders():
    """The accessors' caches cleared before and after the test."""
    special._scipy_special.cache_clear()
    special._scipy_fft.cache_clear()
    yield
    special._scipy_special.cache_clear()
    special._scipy_fft.cache_clear()


def stand_ins():
    """The stand-in packages in ``sys.modules``: bare modules, with no ``__file__``."""
    return [p for p in STOOD_IN if p in sys.modules and not hasattr(sys.modules[p], "__file__")]


def fail_direct_loads(monkeypatch):
    """Makes each direct load raise once its stand-ins are in place.

    The packages stood in for, and the modules beneath them, are hidden
    from ``sys.modules`` for the test, so that stand-ins are made even where
    SciPy is already imported.  Returns the list that collects the
    stand-ins present when a load raised.
    """
    stood_in = []
    for name in list(sys.modules):
        if name.startswith(STOOD_IN):
            monkeypatch.delitem(sys.modules, name)

    def failing(name):
        stood_in.extend(stand_ins())
        raise ImportError(f"direct load of {name} made to fail")
    monkeypatch.setattr(special, "import_module", failing)
    return stood_in


class TestScipyLoaders:
    """The accessors load SciPy's compiled modules directly and fall back to
    the public packages; either way the values are the same."""

    @staticmethod
    def probe(mode):
        env = dict(os.environ)
        src = str(Path(rs.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", _LOADER_PROBE, mode, json.dumps(STOOD_IN),
             json.dumps(UFUNCS)], env=env, capture_output=True, text=True, check=True)
        return json.loads(done.stdout.splitlines()[-1])

    def test_direct_load_in_a_fresh_process(self):
        assert self.probe("direct") == {"ufuncs": "scipy.special._ufuncs", "stood_in": [],
                                        "left": [], "beneath": [], "same": [True] * 5,
                                        "rfft": True}

    def test_failed_direct_load_in_a_fresh_process(self):
        found = self.probe("fail")
        del found["beneath"]  # the public packages' own modules
        assert found == {"ufuncs": "scipy.special", "left": [], "same": [True] * 5,
                         "rfft": True, "stood_in": list(STOOD_IN)}

    @pytest.mark.parametrize("shape", [(32, 8192), (1, 1001), (16, 16384)])
    def test_direct_rfft_equals_scipy_fft_bit_for_bit(self, fresh_loaders, shape):
        import scipy.fft
        from scipy.fft._pocketfft import pypocketfft
        rfft = special._scipy_fft()
        assert rfft.func is pypocketfft.r2c
        rng = np.random.default_rng(sum(shape))
        x = rng.integers(0, 2, shape).astype(np.float32) - np.float32(0.5)
        ours, public = rfft(x), scipy.fft.rfft(x, axis=1)
        assert ours.dtype == public.dtype == np.complex64
        assert ours.tobytes() == public.tobytes()

    def test_fallback_writes_the_same_reports(self, tmp_path, fresh_loaders, monkeypatch):
        data = tmp_path / "data"
        assert main(["simulate", "--plan", str(DESK_PLAN), "--out", str(data)]) == 0
        manifest = str(data / "qubit-00" / "manifest.json")

        def report(out):
            assert main(["test", "--manifest", manifest, "--out", str(tmp_path / out)]) == 1
            return [(tmp_path / out / f).read_bytes() for f in ("report.json", "results.csv")]

        direct = report("direct")
        assert special._scipy_special().__name__ == "scipy.special._ufuncs"
        assert special._scipy_fft().func.__name__ == "r2c"
        special._scipy_special.cache_clear()
        special._scipy_fft.cache_clear()
        stood_in = fail_direct_loads(monkeypatch)
        assert report("public") == direct
        assert stood_in and stand_ins() == []
        assert special._scipy_special().__name__ == "scipy.special"
        assert special._scipy_fft().func.__name__ == "rfft"
