"""Special-function contracts, checked against an independent high-precision oracle."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

import randsuite as rs
from randsuite import erfc, erfc_inv, normal_cdf, special, upper_igamc
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
        assert upper_igamc(1.5, 0.5) == pytest.approx(0.801252, abs=1e-6)

    def test_longest_run_example(self):
        assert upper_igamc(2.5, 3.994459 / 2) == pytest.approx(0.550214, abs=1e-6)

    @pytest.mark.parametrize("a", [0.5, 1.0, 4.5, 32.0])
    def test_zero_lower_limit(self, a):
        assert upper_igamc(a, 0.0) == 1.0

    # The grid reaches Q down to about 1e-88 (a = 0.5, x = 200), hence abs=0.
    @pytest.mark.parametrize("a,x", [(1.5, 0.5), (2.5, 1.997), (4.5, 12.6), (32.0, 40.0)]
                             + [(a, x) for a in (0.5, 1.5, 4.5, 10.0, 50.0)
                                for x in (0.3, 2.0, 9.0, 60.0, 200.0)])
    def test_matches_mpmath(self, a, x):
        assert upper_igamc(a, x) == pytest.approx(mp_upper_igamc(a, x), rel=1e-12, abs=0)

    def test_decreasing_in_x(self):
        vals = upper_igamc(3.0, np.linspace(0.0, 30.0, 200))
        assert (np.diff(vals) <= 0).all()
        assert vals[-1] == pytest.approx(0.0, abs=1e-9)

    def test_domain(self):
        for a, x, message in [(0.0, 1.0, "a > 0, got a=0.0"), (-1.0, 1.0, "a > 0, got a=-1.0"),
                              (1.0, -0.5, "x >= 0, got x=-0.5"),
                              (math.nan, 1.0, "finite a and non-NaN x, got a=nan"),
                              (math.inf, 1.0, "finite a and non-NaN x, got a=inf"),
                              (1.0, math.nan, "finite a and non-NaN x, got a=1.0, x=nan")]:
            with pytest.raises(DomainError, match=re.escape(f"upper_igamc requires {message}")):
                upper_igamc(a, x)
        with pytest.raises(DomainError, match=re.escape("got x=-2.0")):
            upper_igamc([1.0, 2.0], [0.5, -2.0])


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
# The ufuncs that randsuite uses; all but the last are in _special_ufuncs.
UFUNCS = ("erfc", "gammaincc", "ndtr", "erfcinv")
SPECIAL_UFUNCS, UFUNCS_MODULE = "scipy.special._special_ufuncs", "scipy.special._ufuncs"
POCKETFFT = "scipy.fft._pocketfft.pypocketfft"
DESK_PLAN = Path(__file__).resolve().parents[1] / "plans" / "desk_biased_5q.json"

# Loads every ufunc, in the order given as argv[3], and the transform in a
# fresh interpreter, the direct load made to fail once a stand-in is in
# place when argv[1] is "fail", then imports the public packages.  Prints,
# as its last line, the modules loaded directly, in order, the stand-ins
# present when a load raised, the stand-ins and other modules beneath them
# left in sys.modules afterwards, and whether the public packages work and
# give the accessors' functions.
_LOADER_PROBE = """
import json, sys
import numpy as np
from randsuite import special
STOOD_IN = tuple(json.loads(sys.argv[2]))
UFUNCS = json.loads(sys.argv[3])
def stand_ins():
    return [p for p in STOOD_IN if p in sys.modules and not hasattr(sys.modules[p], "__file__")]
stood_in, loads = [], []
if sys.argv[1] == "fail":
    def load(name):
        stood_in.extend(stand_ins())
        raise ImportError(name)
else:
    def load(name, real=special.import_module):
        loads.append(name)
        return real(name)
special.import_module = load
ufuncs, rfft = [special._scipy_ufunc(f) for f in UFUNCS], special._scipy_fft()
left = stand_ins()
beneath = [m for m in sys.modules if m.startswith(STOOD_IN)]
import scipy.special, scipy.fft
with scipy.special.errstate(all="raise"):
    pass
x = np.linspace(-0.5, 0.5, 2 * 1001, dtype=np.float32).reshape(2, 1001)
out = np.empty((2, 501), dtype=np.complex64)
print(json.dumps({
    "loads": loads, "stood_in": sorted(set(stood_in)), "left": left, "beneath": beneath,
    "same": [u is getattr(scipy.special, f) for u, f in zip(ufuncs, UFUNCS)],
    "rfft": rfft(x, out=out) is out
            and out.tobytes() == scipy.fft.rfft(x, axis=1).tobytes()}))
"""

# Runs each CLI command of argv[1] in turn in a fresh interpreter and prints,
# as its last line, which of SciPy's compiled ufunc modules are mapped into
# the process after each one.  The accessors take what they load back out of
# sys.modules, so the mapped shared objects are what shows a module loaded.
_MAPPED_PROBE = """
import json, sys
from randsuite.cli import main
def mapped():
    with open("/proc/self/maps") as maps:
        names = {line.rsplit("/", 1)[-1].split(".")[0] for line in maps}
    return sorted(names & {"_special_ufuncs", "_ufuncs"})
stages = []
for argv in json.loads(sys.argv[1]):
    assert main(argv) in (0, 1), argv
    stages.append(mapped())
print(json.dumps(stages))
"""


def fresh_process(script, *args):
    """The last line of ``script``'s output, run with ``args`` in a fresh interpreter, as JSON."""
    env = dict(os.environ)
    src = str(Path(rs.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def clear_loaders():
    for accessor in (special._compiled, special._scipy_ufunc, special._scipy_fft):
        accessor.cache_clear()


@pytest.fixture
def fresh_loaders():
    """The accessors' caches cleared before and after the test."""
    clear_loaders()
    yield
    clear_loaders()


@pytest.fixture
def desk_report(tmp_path):
    """``report(out)``: the report.json and results.csv bytes of ``test`` on
    the desk plan's first qubit, written to ``tmp_path / out``."""
    data = tmp_path / "data"
    assert main(["simulate", "--plan", str(DESK_PLAN), "--out", str(data)]) == 0
    manifest = str(data / "qubit-00" / "manifest.json")

    def report(out):
        assert main(["test", "--manifest", manifest, "--out", str(tmp_path / out)]) == 1
        return [(tmp_path / out / f).read_bytes() for f in ("report.json", "results.csv")]
    return report


def stand_ins():
    """The stand-in packages in ``sys.modules``: bare modules, with no ``__file__``."""
    return [p for p in STOOD_IN if p in sys.modules and not hasattr(sys.modules[p], "__file__")]


def fail_direct_loads(monkeypatch, failing=None):
    """Makes each direct load of a module in ``failing`` (every module when
    None) raise once its stand-ins are in place, and records the others.

    The packages stood in for, and the modules beneath them, are hidden
    from ``sys.modules`` for the test, so that stand-ins are made even where
    SciPy is already imported.  Returns the list that collects the
    stand-ins present when a load raised, and the list of modules loaded.
    """
    stood_in, loaded = [], []
    for name in list(sys.modules):
        if name.startswith(STOOD_IN):
            monkeypatch.delitem(sys.modules, name)

    def load(name, real=special.import_module):
        if failing is None or name in failing:
            stood_in.extend(stand_ins())
            raise ImportError(f"direct load of {name} made to fail")
        loaded.append(name)
        return real(name)
    monkeypatch.setattr(special, "import_module", load)
    return stood_in, loaded


class TestScipyLoaders:
    """The accessors load SciPy's compiled modules directly and fall back to
    the public packages; either way the values are the same."""

    @staticmethod
    def probe(mode):
        return fresh_process(_LOADER_PROBE, mode, json.dumps(STOOD_IN), json.dumps(UFUNCS))

    def test_direct_load_in_a_fresh_process(self):
        assert self.probe("direct") == {
            "loads": [SPECIAL_UFUNCS, UFUNCS_MODULE, POCKETFFT], "stood_in": [],
            "left": [], "beneath": [], "same": [True] * 4, "rfft": True}

    def test_failed_direct_load_in_a_fresh_process(self):
        found = self.probe("fail")
        del found["beneath"]  # the public packages' own modules
        assert found == {"loads": [], "left": [], "same": [True] * 4, "rfft": True,
                         "stood_in": sorted(STOOD_IN)}

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                        reason="reads the process's mapped shared objects")
    def test_only_stability_loads_ufuncs(self, tmp_path):
        data, out = tmp_path / "data", tmp_path / "out"
        assert main(["simulate", "--plan", str(DESK_PLAN), "--out", str(data)]) == 0
        manifest = str(data / "qubit-00" / "manifest.json")
        assert fresh_process(_MAPPED_PROBE, json.dumps([
            ["test", "--manifest", manifest, "--out", str(out)],
            ["stability", "--manifest", manifest, "--out", str(out)],
        ])) == [["_special_ufuncs"], ["_special_ufuncs", "_ufuncs"]]

    @pytest.mark.parametrize("fallback", [False, True])
    @pytest.mark.parametrize("shape", [(32, 8192), (1, 1001), (16, 16384)])
    def test_direct_rfft_equals_scipy_fft_bit_for_bit(self, fresh_loaders, monkeypatch,
                                                      shape, fallback):
        import scipy.fft
        from scipy.fft._pocketfft import pypocketfft
        if fallback:
            fail_direct_loads(monkeypatch)
        rfft = special._scipy_fft()
        assert (getattr(rfft, "func", None) is pypocketfft.r2c) is not fallback
        rng = np.random.default_rng(sum(shape))
        x = rng.integers(0, 2, shape).astype(np.float32) - np.float32(0.5)
        out = np.empty((shape[0], shape[1] // 2 + 1), dtype=np.complex64)
        public = scipy.fft.rfft(x, axis=1)
        assert rfft(x, out=out) is out
        assert public.dtype == np.complex64
        assert out.tobytes() == public.tobytes()

    def test_fallback_writes_the_same_reports(self, desk_report, fresh_loaders, monkeypatch):
        _, loaded = fail_direct_loads(monkeypatch, failing=())
        direct = desk_report("direct")
        assert sorted(loaded) == [POCKETFFT, SPECIAL_UFUNCS]
        assert special._scipy_fft().func.__name__ == "r2c"
        clear_loaders()
        stood_in, loaded = fail_direct_loads(monkeypatch)
        assert desk_report("public") == direct
        assert stood_in and stand_ins() == [] and loaded == []
        assert special._scipy_fft().__name__ == "rfft"

    def test_without_special_ufuncs_writes_the_same_reports(self, desk_report, fresh_loaders,
                                                            monkeypatch):
        """A SciPy without _special_ufuncs gives every ufunc from _ufuncs."""
        direct = desk_report("direct")
        clear_loaders()
        stood_in, loaded = fail_direct_loads(monkeypatch, failing=(SPECIAL_UFUNCS,))
        assert desk_report("older") == direct
        assert set(stood_in) == {"scipy.special"} and stand_ins() == []
        assert sorted(loaded) == [POCKETFFT, UFUNCS_MODULE]
        import scipy.special
        assert all(special._scipy_ufunc(f) is getattr(scipy.special, f) for f in UFUNCS)
