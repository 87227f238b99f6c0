"""Transcendental kernels evaluated in-tree, not by an external special-function library.

:func:`erf` is the one kernel here.  GELU (forward and gradient) and the
``erf`` operator call it, so the runtime needs nothing beyond numpy.

It is Cephes' ``erf`` (``ndtr.c``, the routine behind ``scipy.special.erf``)
evaluated with numpy in float64, with the same coefficients, the same Horner
order and the same operation order:

* ``|x| <= 1``: ``x * T(x^2) / U(x^2)``;
* ``|x| > 1``:  ``1 - exp(-x^2) * P(|x|) / Q(|x|)``, with the sign of ``x``.

A float32 input is rounded once, from float64, to a float32 result.
``|x|`` is clamped at the point where the result has saturated to ``+-1`` in
the output dtype (4 for float32, 6 for float64).  This keeps every element
finite for both branches, so both are evaluated on the whole array and
selected at the end.  At the sizes the models use, that costs fewer numpy
calls than gathering each branch's elements.

Bit identity with ``scipy.special.erf``:

* float32: every one of the 2^32 float32 inputs gives the same bits, NaN for
  NaN.  This was checked exhaustively under numpy's default CPU dispatch and
  with ``NPY_DISABLE_CPU_FEATURES`` switching off the AVX-512 loops, and the
  AVX-512 and ``X86_V3`` loops.  ``tests/test_tensorlib_transcendental.py``
  re-checks the edges and a strided sweep of bit patterns.
* float64: within 1 ulp.  The ``|x| > 1`` branch uses numpy's ``exp``, not
  the C library's, and the two differ by an ulp on a small share of inputs
  on some CPUs.  Only the float64 GELU gradient reads this path.
"""

from __future__ import annotations

import numpy as np

# Cephes ndtr.c.  _Q and _U omit their leading coefficient, which is 1.
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)

# Smallest |x| from which erf(x) rounds to +-1 in the output dtype.
_SATURATION = {np.float32: 4.0, np.float64: 6.0}


def _polevl(v: np.ndarray, coef) -> np.ndarray:
    """Cephes ``polevl``: Horner from the leading coefficient."""
    s = v * coef[0]
    s += coef[1]
    for c in coef[2:]:
        s *= v
        s += c
    return s


def _p1evl(v: np.ndarray, coef) -> np.ndarray:
    """Cephes ``p1evl``: ``polevl`` with an implied leading coefficient of 1."""
    s = v + coef[0]
    for c in coef[1:]:
        s *= v
        s += c
    return s


def erf(x) -> np.ndarray:
    """Elementwise error function; float32 in, float32 out, else float64."""
    x = np.asarray(x)
    dtype = np.float32 if x.dtype == np.float32 else np.float64
    ax = np.minimum(np.absolute(x, dtype=np.float64), _SATURATION[dtype])
    z = ax * ax
    small = ax * _polevl(z, _T) / _p1evl(z, _U)
    large = 1.0 - np.exp(-z) * _polevl(ax, _P) / _p1evl(ax, _Q)
    out = np.where(ax <= 1.0, small, large).astype(dtype, copy=False)
    return np.copysign(out, x, out=out)
