"""Numerically robust special functions shared by every test.

Thin, strictly-checked wrappers around SciPy's vetted implementations
(Cephes under the hood: series expansion for small x, continued fraction
in the tail).  All p-value producers in this package go through
:func:`as_probability`, which rejects out-of-range values instead of
clamping them.

:func:`erfc`, :func:`upper_igamc`, :func:`normal_cdf` and
:func:`as_probability` take a real number or an array of them: a number
comes back as a float, an array as an array of the broadcast shape, with the
same checks applied to every element.  A bool, a string, None or any array
whose dtype is not integer or float raises ``DomainError``, and so does a NaN
or an infinity where the function needs a finite value.  :func:`erfc_inv`
takes one real number, checked by ``errors.check_real``.

The package reaches SciPy only through this module's two accessors, on first
use: a ``scipy.special`` ufunc at the first call that needs it,
``scipy.fft``'s real transform at the spectral test's first single (not
four-step) transform, float32 or float64, recounts included.  Each loads
the compiled module it needs without running the ``__init__`` of
``scipy.special`` or ``scipy.fft``, which would load SciPy's
array-API layer (``scipy._lib._array_api``, ``numpy.testing``,
``numpy.f2py``).  A ufunc comes from the smallest compiled module that
defines it: ``erfc``, ``gammaincc`` and ``ndtr`` from
``scipy.special._special_ufuncs``, and ``erfcinv``, which only
:func:`erfc_inv` needs, from ``scipy.special._ufuncs``, which loads
``_special_ufuncs`` too.  Loaded into a fresh process, the first adds about
1 MB of resident memory and the second about 3.5 MB.  The transform comes
from ``scipy.fft._pocketfft.pypocketfft``.  In a fresh process the three
ufuncs and the transform load in about 21 ms and ``erfcinv`` in 8 ms more,
where the public imports took about 0.32 s (medians of 9, 2-vCPU Xeon,
scipy 1.17.1); 16 ms of the 21 is ``import scipy`` itself.  The ufuncs
are the very objects ``scipy.special`` exports and the transform is the
call ``scipy.fft.rfft`` makes, so every value is the same.  These module
names are private to SciPy: a ufunc whose direct load fails for any reason
comes from the next larger module, ``_ufuncs``, and then from the public
``scipy.special``, and a failed transform load imports the public
``scipy.fft``, so every SciPy that ``pyproject.toml`` allows
(``scipy>=1.10``) still works.  ``simulate`` and ``entropy``, which compute
no p-value, load no SciPy.  A missing SciPy surfaces as an ``ImportError``
at the first call that needs it.
"""

import sys
from functools import cache, partial
from importlib import import_module
from importlib.util import find_spec
from types import ModuleType

import numpy as np

from .errors import DomainError, check_real

__all__ = [
    "erfc",
    "erfc_inv",
    "upper_igamc",
    "normal_cdf",
    "as_probability",
]

# Accumulated float roundoff in sums of CDF terms; anything farther outside
# [0, 1] than this is treated as a bug, not noise.
_P_SLACK = 1e-12


@cache
def _compiled(name: str):
    """SciPy's compiled module ``name``, imported once without running the
    ``__init__`` of the packages between ``scipy`` and it.

    The top-level ``scipy`` package is imported as usual (it loads its
    subpackages lazily).  Each package below it that is not imported yet
    stands in ``sys.modules``, while the module loads, as a bare module with
    the package's real ``__path__``, so the module and the siblings it
    imports are found where they always are.  Whatever happens, the
    stand-ins and every module loaded beneath them then leave
    ``sys.modules``: a later import of the public package loads those
    modules again and binds them to itself, as SciPy expects
    (``scipy.special.seterr`` reads ``scipy.special._special_ufuncs``).
    SciPy's compiled modules return their existing module object when
    imported again, so the public package gets the objects loaded here.
    """
    import scipy  # noqa: F401
    stand_ins = []
    try:
        parts = name.split(".")
        for depth in range(2, len(parts)):
            package = ".".join(parts[:depth])
            if package not in sys.modules:
                stand_in = ModuleType(package)
                stand_in.__path__ = find_spec(package).submodule_search_locations
                sys.modules[package] = stand_in
                stand_ins.append(package)
        return import_module(name)
    finally:
        beneath = tuple(package + "." for package in stand_ins)
        for module in [m for m in list(sys.modules) if m in stand_ins or m.startswith(beneath)]:
            del sys.modules[module]


# SciPy's compiled ufunc modules, smallest first: _ufuncs loads _special_ufuncs
# and defines every ufunc that it does.
_UFUNC_MODULES = ("scipy.special._special_ufuncs", "scipy.special._ufuncs")


@cache
def _scipy_ufunc(name: str):
    """SciPy's ufunc ``name``, from the smallest compiled module that defines it."""
    for module in _UFUNC_MODULES:
        try:
            return getattr(_compiled(module), name)
        except Exception:
            pass
    from scipy import special
    return getattr(special, name)


@cache
def _scipy_fft():
    """``scipy.fft.rfft(x, axis=1)`` as a function ``rfft(x, out)`` of the 2-D
    real array ``x`` that writes the transform into ``out`` and returns it.

    It is the spectral test's single transform, in float32 (``out``
    complex64) or in float64 (``out`` complex128).  Both run pocketfft: in
    float64 its spectra are bit-identical to ``numpy.fft.rfft``'s.
    """
    try:
        # The call scipy.fft.rfft makes, without its argument handling.
        return partial(_compiled("scipy.fft._pocketfft.pypocketfft").r2c, axes=(1,),
                       forward=True, inorm=0, nthreads=1)
    except Exception:
        from scipy import fft

        def rfft(x, out):
            out[...] = fft.rfft(x, axis=1)
            return out
        return rfft


def _real(value, what: str, finite: bool = True) -> np.ndarray:
    """``value`` as a float64 array if it is a real number or an array of integer
    or float dtype (and, with ``finite``, holds no NaN or infinity), else
    DomainError naming ``what``."""
    array = np.asarray(value)
    if array.dtype.kind not in "iuf":
        if array.ndim:
            raise DomainError(f"{what} requires real numbers, got an array of {array.dtype}")
        # A single value numpy holds as an object (a Python int beyond 64 bits,
        # say) is a real number if check_real says so.
        array = np.asarray(float(check_real(f"{what} argument", value, -np.inf, np.inf)))
    array = array.astype(np.float64, copy=False)
    if finite and not np.isfinite(array).all():
        raise DomainError(f"{what} requires a finite argument, "
                          f"got {_first(array, ~np.isfinite(array))!r}")
    return array


def _first(values: np.ndarray, where: np.ndarray) -> float:
    """The first element of ``values`` flagged by ``where``, as a float."""
    return float(np.broadcast_to(values, where.shape)[where].flat[0])


def _result(values: np.ndarray):
    """A 0-d result as a float, anything else unchanged."""
    return float(values) if values.ndim == 0 else values


def erfc(z):
    """Complementary error function (2/sqrt(pi)) * integral of exp(-u^2) from z."""
    return _result(_scipy_ufunc("erfc")(_real(z, "erfc")))


def erfc_inv(p: float) -> float:
    """Inverse of :func:`erfc` on (0, 2)."""
    return float(_scipy_ufunc("erfcinv")(check_real("erfc_inv argument", p, 0, 2, "()")))


def upper_igamc(a, x):
    """Regularized upper incomplete gamma Q(a, x), the integral of
    t^(a-1) e^(-t) from x to infinity over Gamma(a), for a > 0 and x >= 0."""
    a, x = _real(a, "upper_igamc", finite=False), _real(x, "upper_igamc", finite=False)
    bad = np.isnan(a) | np.isnan(x) | np.isinf(a)
    if bad.any():
        raise DomainError("upper_igamc requires finite a and non-NaN x, got "
                          f"a={_first(a, bad)!r}, x={_first(x, bad)!r}")
    if (a <= 0.0).any():
        raise DomainError(f"upper_igamc requires a > 0, got a={_first(a, a <= 0.0)!r}")
    if (x < 0.0).any():
        raise DomainError(f"upper_igamc requires x >= 0, got x={_first(x, x < 0.0)!r}")
    return _result(_scipy_ufunc("gammaincc")(a, x))


def normal_cdf(x):
    """Standard normal CDF, accurate in both tails."""
    return _result(_scipy_ufunc("ndtr")(_real(x, "normal_cdf")))


def as_probability(value, *, what: str = "p-value"):
    """Validate that ``value`` holds probabilities in [0, 1] and return it.

    Values within float-roundoff slack of the interval are snapped onto it;
    anything farther outside raises, because a p-value outside [0, 1] means
    a formula was implemented wrong, and clamping would hide that.
    """
    value = _real(value, what, finite=False)
    if np.isnan(value).any():
        raise DomainError(f"{what} is NaN")
    if (value < -_P_SLACK).any():
        raise DomainError(f"{what} out of range: {_first(value, value < -_P_SLACK)!r} < 0")
    if (value > 1.0 + _P_SLACK).any():
        raise DomainError(
            f"{what} out of range: {_first(value, value > 1.0 + _P_SLACK)!r} > 1")
    return _result(np.where(value < 0.0, 0.0, np.where(value > 1.0, 1.0, value)))
