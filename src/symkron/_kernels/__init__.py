"""The exact-arithmetic kernels for sparse series in power-sum coordinates.

A term map is an ``IntTerms``: a read-only ``Mapping`` from ``Partition``
keys (weakly decreasing integer tuples) to rationals, held as integer
numerators over one reduced denominator; a ``fractions.Fraction`` value is
built only where one is read; ``nums`` is a read-only view.  Each kernel
exists once, in Python, reads its inputs' ``nums`` and ``den`` and
computes on Python ints; ``sum_terms`` (the one sparse linear
combination), ``mul_terms``, ``exp_terms`` and ``kron_terms`` return an
``IntTerms``, so a chain of kernels builds no ``Fraction`` at all;
``scalar_terms`` builds one, its result.  The kernels trust their inputs'
keys to be partitions and validate none.  A single Kronecker coefficient
does not run here: ``products.kronecker_coefficient`` is one dot product
of dense character rows, with no sparse map to walk.

The two multiplicative kernels share one integer coding of keys.  A key is
the int sum of 2**((part - 1) * shift) over its parts, with
``shift = limit.bit_length()``: one field of ``shift`` bits per part size
holds that part's multiplicity, so merging two keys is adding their codes.
Every key they code or produce weighs at most ``limit``, so no multiplicity
(at most ``limit``) overflows its field.  They run one pair loop,
``_pair_sums``, on weight slices of coded rows, and the output codes are
decoded at the end; only the part sizes the inputs contain get a code.
``exp_terms`` runs the Euler recurrence through ``_exp_slices``, the one
driver of that recurrence, which ``bases.exp_in_s`` also runs on Schur
vectors with its own product of slices.  A code stands for the same
partition under every limit of its width, so each code is decoded once
per process and width (and not validated: decoding yields positive,
decreasing parts by construction): ``_decoded(shift)`` keeps the
``Partition`` of every code decoded at that width, and every result
shares that one key object per partition.  Input keys never enter the
table.
"""

import functools
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from symkron.partitions import Partition, _z


def backend_name() -> str:
    """Which implementation runs the kernels; always "python"."""
    return "python"


class IntTerms(Mapping):
    """A read-only term map held as integer numerators over one denominator.

    ``nums`` maps each key to a nonzero int and ``den`` is positive, with
    gcd(den, *nums) == 1, so the form is canonical; ``nums`` is a read-only
    view and neither field can be reassigned.  ``len``, iteration, ``in``
    and ``keys()`` answer from ``nums``; reading a value builds its
    ``Fraction``, and the ``items()`` and ``values()`` views of ``Mapping``
    build one per value read.  Two ``IntTerms`` compare by (den, nums);
    any other mapping compares by value.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: dict, den: int):
        """Trusted: nums nonzero, den > 0 and the pair already reduced."""
        object.__setattr__(self, "nums", MappingProxyType(nums))
        object.__setattr__(self, "den", den)

    @classmethod
    def reduced(cls, nums: dict, den: int) -> "IntTerms":
        """nums / den in lowest terms; nums nonzero and den > 0."""
        cut = gcd(den, *nums.values())
        if cut != 1:
            nums = {k: v // cut for k, v in nums.items()}
            den //= cut
        return cls(nums, den)

    def __reduce__(self):
        # copy and pickle rebuild through __init__; a view cannot be pickled.
        return IntTerms, (dict(self.nums), self.den)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getitem__(self, key):
        return Fraction(self.nums[key], self.den)

    def get(self, key, default=None):
        v = self.nums.get(key)
        return default if v is None else Fraction(v, self.den)

    def keys(self):
        return self.nums.keys()

    def __iter__(self):
        return iter(self.nums)

    def __len__(self):
        return len(self.nums)

    def __contains__(self, key):
        return key in self.nums

    def __eq__(self, other):
        if type(other) is IntTerms:
            return self.den == other.den and self.nums == other.nums
        if isinstance(other, Mapping):
            return dict(self.items()) == dict(other.items())
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"IntTerms({dict(self.nums)!r}, den={self.den})"


def _units(limit: int, *maps: IntTerms) -> tuple[int, dict]:
    """The field width for keys of weight <= limit, and the code of each
    part size up to limit that a key of the maps contains.  Only those: the
    code of part p holds (p - 1) * width bits, so coding every size up to
    limit would cost O(limit**2) bits whatever the keys, and every key a
    kernel codes or produces is made of input parts."""
    shift = limit.bit_length()
    parts: set = set()
    for m in maps:
        parts.update(*m.nums)
    return shift, {p: 1 << ((p - 1) * shift) for p in parts if p <= limit}


def _slices(terms: IntTerms, limit: int, unit: dict) -> dict:
    """{weight: [(code, numerator), ...]} for every key of weight <= limit."""
    slices: dict = {}
    for k, v in terms.nums.items():
        w = sum(k)
        if w <= limit:
            slices.setdefault(w, []).append((sum(map(unit.__getitem__, k)), v))
    return slices


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
    for each part size.  Its parts are positive and come out weakly
    decreasing, so the ``Partition`` is built without re-validating them."""
    mask = (1 << shift) - 1
    parts: list = []
    part = 1
    while code:
        parts += [part] * (code & mask)
        code >>= shift
        part += 1
    parts.reverse()
    return tuple.__new__(Partition, parts)


def _decode_into(out: dict, rows, shift: int, scale: int = 1) -> None:
    """out[key] = numerator * scale for every nonzero coded row, each key
    taken from, or decoded once into, the table of its width."""
    table = _decoded(shift)
    for code, v in rows:
        if v:
            key = table.get(code)
            if key is None:
                key = table[code] = _decode(code, shift)
            out[key] = v * scale


def sum_terms(rows, den: int = 1) -> IntTerms:
    """sum of c * row / den over the (int c, IntTerms row) pairs of the
    list ``rows``: one sparse linear combination, over den times the lcm of
    the rows' denominators, reduced."""
    common = lcm(*[row.den for _, row in rows])
    acc: dict = {}
    get = acc.get
    for c, row in rows:
        scale = c * (common // row.den)
        for k, v in row.nums.items():
            acc[k] = get(k, 0) + scale * v
    return IntTerms.reduced({k: v for k, v in acc.items() if v}, den * common)


def mul_terms(a: IntTerms, b: IntTerms, limit: int) -> IntTerms:
    """Sparse product of two multiplicative-basis term maps, truncated so
    that no result key has weight above ``limit``.

    Keys above the limit are dropped before coding; each pair of weight
    slices whose weights add up to at most the limit runs the pair loop.
    """
    shift, unit = _units(limit, a, b)
    slices_a = _slices(a, limit, unit)
    slices_b = _slices(b, limit, unit)
    acc: dict = {}
    for wa, rows_a in slices_a.items():
        for wb, rows_b in slices_b.items():
            if wa + wb <= limit:
                _pair_sums(acc, rows_a, rows_b)
    out: dict = {}
    _decode_into(out, acc.items(), shift)
    return IntTerms.reduced(out, a.den * b.den)


def _exp_slices(slices: dict, den: int, limit: int, act) -> tuple[int, list]:
    """The weight slices of g = exp(f), to weight ``limit``, in the caller's
    coordinates: the one Euler recurrence of ``exp_terms`` and
    ``bases.exp_in_s``.

    ``slices`` maps each weight j to the rows (key, numerator) of f_j, all
    over ``den``; weight 0 is skipped.  ``act(acc, rows, g_rest)`` adds
    the product of two lists of rows into the dict ``acc``, with key 0 for
    the empty partition.  With g_0 = 1, the recurrence is

        k g_k = sum_{j=1..k} j f_j g_{k-j}.

    Every g_k is held as rows over one denominator of its own, reduced by
    the gcd of the slice.  Returns the lcm D of those denominators and each
    slice's rows with the factor that puts them over D.  g over D is
    reduced already: a prime that divided D and every numerator would
    divide the slice of highest order in that prime, numerators and
    denominator alike.
    """
    jf = {j: [(key, j * v) for key, v in rows] for j, rows in sorted(slices.items()) if j}
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
                rows = [(key, v * scale) for key, v in rows]
            act(acc, rows, g_rest)
        d = den * common * k
        cut = gcd(d, *acc.values())
        g.append([(key, v // cut) for key, v in acc.items() if v])
        dens.append(d // cut)
    whole = lcm(*dens)
    return whole, [(rows, whole // d) for rows, d in zip(g, dens)]


def exp_terms(terms: IntTerms, limit: int) -> IntTerms:
    """exp of a constant-free multiplicative-basis term map, truncated at
    weight ``limit``: ``_exp_slices`` on coded keys, with ``_pair_sums`` as
    the product of two slices, and every code decoded at the end."""
    shift, unit = _units(limit, terms)
    den, slices = _exp_slices(_slices(terms, limit, unit), terms.den, limit, _pair_sums)
    out: dict = {}
    for rows, scale in slices:
        _decode_into(out, rows, shift, scale)
    return IntTerms(out, den)


def kron_terms(a: IntTerms, b: IntTerms) -> IntTerms:
    """Diagonal (Kronecker) product: shared keys only, a[k] * b[k] * z(k),
    with z read from its memo."""
    if len(b) < len(a):
        a, b = b, a
    nb = b.nums
    out = {}
    for k, va in a.nums.items():
        vb = nb.get(k)
        if vb is not None:
            out[k] = va * vb * _z(k)
    return IntTerms.reduced(out, a.den * b.den)


def scalar_terms(a: IntTerms, b: IntTerms) -> Fraction:
    """Sum over shared keys of a[k] * b[k] * z(k), as a Fraction: the sum
    of the numerators of ``kron_terms(a, b)`` over its denominator."""
    k = kron_terms(a, b)
    return Fraction(sum(k.nums.values()), k.den)
