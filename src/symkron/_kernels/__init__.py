"""The exact-arithmetic kernels for sparse series in power-sum coordinates.

Term maps are dicts keyed by weakly decreasing integer tuples with
``fractions.Fraction`` values.  ``kron_terms`` and ``scalar_terms`` exist
once, in Python.  ``mul_terms`` runs on the compiled ``_speedups`` extension
when setup.py could build it, and on the reference ``_mul_terms_py``
otherwise; the two give exactly equal results, and ``backend_name`` says
which one is active.
"""

from fractions import Fraction
from math import lcm

from symkron.partitions import z


def _mul_terms_py(a: dict, b: dict, limit: int) -> dict:
    """Distributive product; keys merge by sorting parts, weights add."""
    if not a or not b:
        return {}
    flat = [(k, sum(k), c) for k, c in b.items()]
    acc: dict = {}
    for ka, ca in a.items():
        wa = sum(ka)
        for kb, wb, cb in flat:
            if wa + wb > limit:
                continue
            key = tuple(sorted(ka + kb, reverse=True))
            prev = acc.get(key)
            acc[key] = ca * cb if prev is None else prev + ca * cb
    return {k: c for k, c in acc.items() if c}


try:
    from symkron._kernels._speedups import mul_terms as _mul
except ImportError:
    _mul = _mul_terms_py


def backend_name() -> str:
    """Which ``mul_terms`` is active: "c" (compiled) or "python"."""
    return "python" if _mul is _mul_terms_py else "c"


# A function of this module rather than an alias of ``_mul``: the layer
# tracer in perfbench/tracer.py wraps only functions defined here.
def mul_terms(a: dict, b: dict, limit: int) -> dict:
    """Sparse product of two multiplicative-basis term maps, truncated so
    that no result key has weight above ``limit``."""
    return _mul(a, b, limit)


def kron_terms(a: dict, b: dict) -> dict:
    """Diagonal (Kronecker) product: shared keys only, a[k] * b[k] * z(k)."""
    if len(b) < len(a):
        a, b = b, a
    out = {}
    for k, ca in a.items():
        cb = b.get(k)
        if cb is not None:
            out[k] = Fraction(ca.numerator * cb.numerator * z(k),
                              ca.denominator * cb.denominator)
    return out


def scalar_terms(a: dict, b: dict) -> Fraction:
    """Sum over shared keys of a[k] * b[k] * z(k), as a Fraction.

    Each input is brought over the common denominator of its shared terms,
    so the sum runs on Python ints and only the result is normalised.
    """
    if len(b) < len(a):
        a, b = b, a
    shared = [(k, ca, b[k]) for k, ca in a.items() if k in b]
    da = lcm(*[ca.denominator for _, ca, _ in shared])
    db = lcm(*[cb.denominator for _, _, cb in shared])
    total = 0
    for k, ca, cb in shared:
        total += (ca.numerator * (da // ca.denominator)
                  * cb.numerator * (db // cb.denominator) * z(k))
    return Fraction(total, da * db)
