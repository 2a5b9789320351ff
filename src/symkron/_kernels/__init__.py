"""The exact-arithmetic kernels for sparse series in power-sum coordinates.

Term maps are dicts keyed by ``Partition`` (weakly decreasing integer
tuples) with ``fractions.Fraction`` values, and every key of a result is a
``Partition``.  Each kernel exists once, in Python, and computes on Python
ints: ``mul_terms`` and ``scalar_terms`` bring each input over one common
denominator, ``kron_terms`` multiplies numerators and denominators apart,
and only the results become ``Fraction`` objects.
"""

from fractions import Fraction
from math import lcm

from symkron.partitions import Partition, z


def backend_name() -> str:
    """Which implementation runs the kernels; always "python"."""
    return "python"


def _rows(terms: dict, limit: int, unit: list, keys: dict) -> tuple[list, int]:
    """(weight, code, numerator) for every key of weight <= limit, sorted by
    weight, and the common denominator of the numerators.  Each code is
    recorded in ``keys`` with the key it stands for."""
    kept = [(k, c) for k, c in terms.items() if sum(k) <= limit]
    den = lcm(*[c.denominator for _, c in kept])
    rows = []
    for k, c in kept:
        code = sum(map(unit.__getitem__, k))
        keys[code] = k
        rows.append((sum(k), code, c.numerator * (den // c.denominator)))
    rows.sort()
    return rows, den


def mul_terms(a: dict, b: dict, limit: int) -> dict:
    """Sparse product of two multiplicative-basis term maps, truncated so
    that no result key has weight above ``limit``.

    A key is coded as the int sum of 2**((part - 1) * shift) over its parts,
    with ``shift = limit.bit_length()``: one field of ``shift`` bits per part
    size holds that part's multiplicity, so merging two keys is adding their
    codes.  Keys above the limit are dropped before coding, and every merged
    key weighs at most ``limit``, so no multiplicity (at most ``limit``)
    overflows its field.  An output key equal to an input key is that key;
    any other is decoded once, into a ``Partition``.
    """
    shift = limit.bit_length()
    unit = [0] + [1 << ((part - 1) * shift) for part in range(1, limit + 1)]
    keys: dict = {}
    rows_a, da = _rows(a, limit, unit, keys)
    rows_b, db = _rows(b, limit, unit, keys)
    acc: dict = {}
    get = acc.get
    for wa, ca, na in rows_a:
        room = limit - wa
        for wb, cb, nb in rows_b:
            if wb > room:
                break
            code = ca + cb
            acc[code] = get(code, 0) + na * nb
    mask = (1 << shift) - 1
    den = da * db
    out = {}
    for code, v in acc.items():
        if not v:
            continue
        key = keys.get(code)
        if key is None:
            parts: list = []
            part = 1
            while code:
                parts += [part] * (code & mask)
                code >>= shift
                part += 1
            parts.reverse()
            key = Partition(parts)
        out[key] = Fraction(v, den)
    return out


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
