"""The exact-arithmetic kernels for sparse series in power-sum coordinates.

Term maps are dicts keyed by ``Partition`` (weakly decreasing integer
tuples) with ``fractions.Fraction`` values, and every key of a result is a
``Partition``.  Each kernel exists once, in Python, and computes on Python
ints: ``mul_terms``, ``exp_terms`` and ``scalar_terms`` bring their inputs
over common denominators, ``kron_terms`` multiplies numerators and
denominators apart, and only the results become ``Fraction`` objects.

The two multiplicative kernels share one integer coding of keys.  A key is
the int sum of 2**((part - 1) * shift) over its parts, with
``shift = limit.bit_length()``: one field of ``shift`` bits per part size
holds that part's multiplicity, so merging two keys is adding their codes.
Every key they code or produce weighs at most ``limit``, so no multiplicity
(at most ``limit``) overflows its field.  They run one pair loop,
``_pair_sums``, on weight slices of coded rows, and the output codes are
decoded at the end.  A code stands for the same partition under every
limit of its width, so each code is decoded and validated once per process
and width: ``_decoded(shift)`` keeps the ``Partition`` of every code
decoded at that width, and every result shares that one key object per
partition.  Input keys never enter the table; callers may pass plain
tuples.
"""

import functools
from fractions import Fraction
from math import gcd, lcm

from symkron.partitions import Partition, z


def backend_name() -> str:
    """Which implementation runs the kernels; always "python"."""
    return "python"


def _units(limit: int) -> tuple[int, list]:
    """The field width for keys of weight <= limit, and the code of each
    single part 1..limit (index 0 is unused)."""
    shift = limit.bit_length()
    return shift, [0] + [1 << ((part - 1) * shift) for part in range(1, limit + 1)]


def _slices(terms: dict, limit: int, unit: list) -> tuple[dict, int]:
    """{weight: [(code, numerator), ...]} for every key of weight <= limit,
    and the common denominator of the numerators."""
    kept = [(k, c) for k, c in terms.items() if sum(k) <= limit]
    den = lcm(*[c.denominator for _, c in kept])
    slices: dict = {}
    for k, c in kept:
        code = sum(map(unit.__getitem__, k))
        slices.setdefault(sum(k), []).append((code, c.numerator * (den // c.denominator)))
    return slices, den


def _pair_sums(acc: dict, rows_a: list, rows_b: list) -> None:
    """acc[ca + cb] += na * nb over every pair of coded rows."""
    get = acc.get
    for ca, na in rows_a:
        for cb, nb in rows_b:
            code = ca + cb
            acc[code] = get(code, 0) + na * nb


@functools.cache
def _decoded(shift: int) -> dict:
    """The code -> Partition table of field width ``shift``, filled by
    ``_decode_into`` for the life of the process (or until
    ``symkron.clear_caches``): at most one entry per partition decoded at
    that width."""
    return {}


def _decode(code: int, shift: int) -> Partition:
    """The partition with multiplicity (code >> (part - 1) * shift) & mask
    for each part size."""
    mask = (1 << shift) - 1
    parts: list = []
    part = 1
    while code:
        parts += [part] * (code & mask)
        code >>= shift
        part += 1
    parts.reverse()
    return Partition(parts)


def _decode_into(out: dict, rows, den: int, shift: int) -> None:
    """out[key] = Fraction(numerator, den) for every nonzero coded row,
    each key taken from, or decoded once into, the table of its width."""
    table = _decoded(shift)
    for code, v in rows:
        if v:
            key = table.get(code)
            if key is None:
                key = table[code] = _decode(code, shift)
            out[key] = Fraction(v, den)


def mul_terms(a: dict, b: dict, limit: int) -> dict:
    """Sparse product of two multiplicative-basis term maps, truncated so
    that no result key has weight above ``limit``.

    Keys above the limit are dropped before coding; each pair of weight
    slices whose weights add up to at most the limit runs the pair loop.
    """
    shift, unit = _units(limit)
    slices_a, da = _slices(a, limit, unit)
    slices_b, db = _slices(b, limit, unit)
    acc: dict = {}
    for wa, rows_a in slices_a.items():
        for wb, rows_b in slices_b.items():
            if wa + wb <= limit:
                _pair_sums(acc, rows_a, rows_b)
    out: dict = {}
    _decode_into(out, acc.items(), da * db, shift)
    return out


def exp_terms(terms: dict, limit: int) -> dict:
    """exp of a constant-free multiplicative-basis term map, truncated at
    weight ``limit``.

    Built weight by weight with the Euler (degree-operator) recurrence: with
    f_j and g_j the weight-j slices of f and of g = exp(f), g_0 = 1 and

        k g_k = sum_{j=1..k} j f_j g_{k-j}.

    Every g_k stays coded, as integer numerators over one denominator of its
    own, reduced by the gcd of the slice; the keys are read from the
    width's table and the Fractions built once, after the last weight.
    """
    shift, unit = _units(limit)
    slices, den_f = _slices(terms, limit, unit)
    jf = {j: [(code, j * v) for code, v in rows] for j, rows in sorted(slices.items()) if j}
    g: list[list] = [[(0, 1)]]
    dens = [1]
    for k in range(1, limit + 1):
        parts = [(rows, g[k - j], dens[k - j]) for j, rows in jf.items()
                 if j <= k and g[k - j]]
        common = lcm(*[d for _, _, d in parts])
        acc: dict = {}
        for rows, g_rest, d in parts:
            scale = common // d
            if scale != 1:
                rows = [(code, v * scale) for code, v in rows]
            _pair_sums(acc, rows, g_rest)
        den = den_f * common * k
        cut = gcd(den, *acc.values())
        g.append([(code, v // cut) for code, v in acc.items() if v])
        dens.append(den // cut)
    out: dict = {}
    for rows, den in zip(g, dens):
        _decode_into(out, rows, den, shift)
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
