"""Conversions between the classical bases and the power-sum coordinates.

The p basis is the canonical coordinate system; every conversion routes
through it.  h and p are multiplicative: a table per single part, multiplied
out, serves each direction, and the two tables serve h, e and m:

* h -> p is the Newton product: h_n by  n h_n = sum_{k=1..n} p_k h_{n-k};
* p -> h is the closed-form product: p_n = sum over lam of
  (-1)^(len(lam) - 1) n (len(lam) - 1)! / prod_i m_i(lam)! h_lam;
* e as omega(h): the involution omega sends h_lam to e_lam and acts on
  power sums as p_mu -> (-1)^(|mu| - len(mu)) p_mu;
* m by the duality <m_lam, h_mu> = delta: [m_lam] f = <f, h_lam>, and
  m -> p is the transposed p -> h table, [p_mu] m_lam = [h_lam] p_mu / z(mu);
* s by symmetric-group characters.

Characters come by two independent routes, both Murnaghan-Nakayama:

* the conversions add border strips on beta-set bitmasks, one helper
  (``_add_strips``: p_t times a Schur vector) for both directions.  p -> s
  in ``from_p`` is a Horner sum over the partition trie: the terms are
  grouped by their smallest part t, each group is converted with t peeled
  off, and p_t multiplies the group's sum once, all over one common
  denominator.  s -> p in ``to_p`` reads integer character *columns*
  p_mu = sum_lam chi^lam(mu) s_lam, memoized per cycle type mu and built
  from the column of mu's tail; the columns serve s -> p only;
* ``character`` / ``character_table`` strip border strips from one row
  lam at a time through the (lam, mu) memo ``_char_cache``.  Only the
  oracle uses this route (``kronecker_coefficient(oracle=True)`` and the
  tests), so the pipeline is never checked against itself.

The character memo of the oracle is a plain dict; every other table is a
``functools.cache`` function.  Both are append-only, so concurrent readers
are safe (a duplicated computation stores the same value twice);
``clear_caches`` empties them all.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial, lcm, prod

from symkron import _kernels as kernels
from symkron.partitions import Partition, partitions_of, z
from symkron.series import BASES, BasisError, SymFunc

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ----------------------------------------------------------------- characters

_char_cache: dict[tuple[tuple, tuple], int] = {}


def character(lam, mu) -> int:
    """Irreducible character chi^lam evaluated on the class of cycle type mu.

    Both arguments must partition the same integer.  Computed by repeatedly
    stripping a border strip of size mu_1 (Murnaghan-Nakayama), implemented
    on beta numbers (first-column hook lengths); memoized.
    """
    lam = Partition(lam)
    mu = Partition(mu)
    if lam.weight != mu.weight:
        raise ValueError(f"character needs |lam| == |mu|, got {lam!r}, {mu!r}")
    return _char(tuple(lam), tuple(mu))


def _char(lam: tuple, mu: tuple) -> int:
    if not mu:
        return 1
    key = (lam, mu)
    val = _char_cache.get(key)
    if val is None:
        val = _strip_sum(lam, mu)
        _char_cache[key] = val
    return val


def _strip_sum(lam: tuple, mu: tuple) -> int:
    t, rest = mu[0], mu[1:]
    length = len(lam)
    beta = [lam[i] + (length - 1 - i) for i in range(length)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        c = b - t
        if c < 0 or c in beta_set:
            continue
        height = sum(1 for x in beta if c < x < b)
        new_beta = sorted((x for x in beta if x != b), reverse=True)
        new_beta.append(c)
        new_beta.sort(reverse=True)
        m = len(new_beta)
        new_lam = tuple(p for p in (new_beta[i] - (m - 1 - i) for i in range(m)) if p > 0)
        child = _char(new_lam, rest)
        total += -child if height % 2 else child
    return total


def character_table(n: int) -> dict[tuple[Partition, Partition], int]:
    """All character values chi^lam(mu) for lam, mu partitions of n, keyed
    by (lam, mu)."""
    lams = partitions_of(n)
    return {(l, m): character(l, m) for l in lams for m in lams}


# ------------------------------------------------------- character columns
#
# A partition lam of n is held as the bitmask of its n beta numbers
# lam_i + n - i (i = 1..n, lam padded with zeros).  Adding a border strip
# of size t moves one bead from b to the empty slot b + t, with sign
# (-1)^(beads strictly between); lifting an (n - t)-bead mask to n beads
# shifts it by t and fills the t lowest slots.

def _beta_mask(lam: tuple, n: int) -> int:
    mask = (1 << (n - len(lam))) - 1
    for i, part in enumerate(lam):
        mask |= 1 << (part + n - 1 - i)
    return mask


@functools.cache
def _weight_index(n: int) -> list[tuple[Partition, int]]:
    """(lam, beta mask) for every lam of weight n, in ascending order."""
    return [(lam, _beta_mask(lam, n)) for lam in partitions_of(n)]


def _add_strips(vec: dict[int, int], t: int, acc: dict[int, int]) -> None:
    """acc += p_t * vec over s, both keyed by beta mask: each partition in
    vec grows by every border strip of size t, with the Murnaghan-Nakayama
    sign.

    A partition of weight w is held as w beads and lifted to w + t beads
    before its strips are added, so the bead count is the weight and the
    entries of a mixed-weight vec never collide.
    """
    fill = (1 << t) - 1
    between = (1 << (t - 1)) - 1
    get = acc.get
    for tail, chi in vec.items():
        mask = (tail << t) | fill
        free = mask & ~(mask >> t)
        while free:
            bead = free & -free
            free ^= bead
            grown = mask ^ bead ^ (bead << t)
            if ((mask >> bead.bit_length()) & between).bit_count() & 1:
                acc[grown] = get(grown, 0) - chi
            else:
                acc[grown] = get(grown, 0) + chi


@functools.cache
def _column(mu: tuple) -> dict[int, int]:
    """Beta mask of lam -> chi^lam(mu), nonzero values only; s -> p only.

    Murnaghan-Nakayama read backwards: every lam of weight |mu| arises from
    a partition in the column of mu[1:] by adding one border strip of size
    mu_1, and chi^lam(mu) sums the signed tail values over those strips.
    """
    if not mu:
        return {0: 1}
    acc: dict[int, int] = {}
    _add_strips(_column(mu[1:]), mu[0], acc)
    return {k: v for k, v in acc.items() if v}


def _horner(terms: dict[tuple, int]) -> dict[int, int]:
    """sum over mu of terms[mu] * p_mu, over s, keyed by beta mask.

    Horner's rule on the partition trie: the terms are grouped by their
    smallest part t, each group (with t peeled off) is converted first, and
    p_t multiplies the group's sum once, by ``_add_strips``.
    """
    out: dict[int, int] = {}
    groups: dict[int, dict] = {}
    for mu, c in terms.items():
        if mu:
            groups.setdefault(mu[-1], {})[mu[:-1]] = c
        else:
            out[0] = c
    for t, group in groups.items():
        _add_strips(_horner(group), t, out)
    return out


# ------------------------------------------------- change-of-basis tables

def _omega(terms: dict) -> dict:
    """The involution omega over p: p_mu -> (-1)^(|mu| - len(mu)) p_mu."""
    return {mu: -c if (sum(mu) - len(mu)) % 2 else c for mu, c in terms.items()}


@functools.cache
def _h_in_p(n: int) -> dict:
    if n == 0:
        return {Partition(): _ONE}
    acc: dict = {}
    for k in range(1, n + 1):
        for key, c in _h_in_p(n - k).items():
            nk = Partition(sorted(key + (k,), reverse=True))
            acc[nk] = acc.get(nk, _ZERO) + c
    return {key: c / n for key, c in acc.items()}


@functools.cache
def _p_in_h(n: int) -> dict:
    """p_n = sum over lam of (-1)^(len(lam) - 1) n (len(lam) - 1)! / prod_i m_i(lam)! h_lam,
    with m_i(lam) the multiplicity of i in lam; every coefficient is an integer."""
    return {lam: Fraction((-1) ** (len(lam) - 1) * n * factorial(len(lam) - 1),
                          prod(map(factorial, lam.multiplicities().values())))
            for lam in partitions_of(n)}


def _product(table, lam: tuple) -> dict:
    """prod_i table(lam_i), multiplied out."""
    out = {Partition(): _ONE}
    weight = sum(lam)
    for part in lam:
        out = kernels.mul_terms(out, table(part), weight)
    return out


#: h_lam over p and p_mu over h, each a product of its single-part table.
_hlam_in_p = functools.cache(functools.partial(_product, _h_in_p))
_plam_in_h = functools.cache(functools.partial(_product, _p_in_h))


@functools.cache
def _s_in_p(lam: tuple) -> dict:
    """[p_mu] s_lam = chi^lam(mu) / z(mu), read across the weight's columns."""
    n = sum(lam)
    mask = _beta_mask(lam, n)
    out = {}
    for mu, _ in _weight_index(n):
        chi = _column(mu).get(mask)
        if chi:
            out[mu] = Fraction(chi, z(mu))
    return out


@functools.cache
def _m_in_p_all(n: int) -> dict[Partition, dict]:
    """p-expansions of every m_lam with lam a partition of n.

    By duality, [p_mu] m_lam = <m_lam, p_mu> / z(mu) = [h_lam] p_mu / z(mu),
    so the p -> h table, transposed, gives every m_lam at once.
    """
    out: dict[Partition, dict] = {lam: {} for lam in partitions_of(n)}
    for mu in partitions_of(n):
        zmu = z(mu)
        for lam, c in _plam_in_h(mu).items():
            out[lam][mu] = c / zmu
    return out


def clear_caches() -> None:
    """Empty every memo of this module: the character memo of the oracle,
    the character columns and the change-of-basis tables.

    Only for cold measurements and tests; values computed before stay
    valid, so the call is harmless apart from the recomputation it causes.
    """
    _char_cache.clear()
    for memo in (_column, _weight_index, _h_in_p, _hlam_in_p, _p_in_h, _plam_in_h,
                 _s_in_p, _m_in_p_all):
        memo.cache_clear()


# -------------------------------------------------------------- conversions

def _change_basis(terms: dict, table) -> dict:
    """sum over lam of terms[lam] * table(lam): one sparse change of basis.

    The input is brought over the lcm of its denominators and the rows over
    the lcm of theirs, so the sum runs on Python ints and each output key
    becomes one Fraction.
    """
    rows = [(c, table(lam)) for lam, c in terms.items()]
    den_in = lcm(*[c.denominator for c in terms.values()])
    den_rows = lcm(*{d.denominator for _, row in rows for d in row.values()})
    acc: dict[Partition, int] = {}
    get = acc.get
    for c, row in rows:
        scale = c.numerator * (den_in // c.denominator)
        for mu, d in row.items():
            num, dd = d.as_integer_ratio()
            acc[mu] = get(mu, 0) + scale * num * (den_rows // dd)
    den = den_in * den_rows
    return {mu: Fraction(v, den) for mu, v in acc.items() if v}


def to_p(f: SymFunc) -> SymFunc:
    """Re-express f over the power sums; exact, same truncation degree."""
    if f.basis == "p":
        return f
    # e_lam = omega(h_lam), and omega is linear: expand as h, then twist.
    tables = {"h": _hlam_in_p, "e": _hlam_in_p, "s": _s_in_p,
              "m": lambda lam: _m_in_p_all(lam.weight)[lam]}
    out = _change_basis(f.terms, tables[f.basis])
    if f.basis == "e":
        out = _omega(out)
    return SymFunc._of("p", out, f.degree)


def from_p(f: SymFunc, target: str) -> SymFunc:
    """Exact change of basis from p to the target basis.

    h coefficients multiply out the p -> h table, and e coefficients are the
    h coefficients of omega(f), since omega(e_lam) = h_lam; m coefficients
    come straight from the scalar product (duality with h); s coefficients
    are the Horner sum of the input over the partition trie, p_t times a
    Schur vector adding border strips of size t, over one common
    denominator.
    """
    if target not in BASES:
        raise BasisError(f"unknown basis {target!r}; expected one of {BASES}")
    if f.basis != "p":
        raise BasisError("from_p expects a p-basis input")
    if target == "p":
        return f
    if target in ("h", "e"):
        terms = _omega(f.terms) if target == "e" else f.terms
        return SymFunc._of(target, _change_basis(terms, _plam_in_h), f.degree)
    if target == "s":
        # Over one common denominator the Horner sum runs on Python ints.
        denom = lcm(*(c.denominator for c in f.terms.values()))
        vec = _horner({mu: c.numerator * (denom // c.denominator)
                       for mu, c in f.terms.items()})
        out = {}
        for n in f.weights():
            for lam, mask in _weight_index(n):
                v = vec.get(mask)
                if v:
                    out[lam] = Fraction(v, denom)
        return SymFunc._of("s", out, f.degree)
    # [m_lam] f = <f, h_lam> by duality, one weight at a time.
    pieces: dict[int, dict] = {}
    for mu, c in f.terms.items():
        pieces.setdefault(mu.weight, {})[mu] = c
    out: dict[Partition, Fraction] = {}
    for n in sorted(pieces):
        for lam in partitions_of(n):
            d = kernels.scalar_terms(pieces[n], _hlam_in_p(lam))
            if d:
                out[lam] = d
    return SymFunc._of("m", out, f.degree)


# ------------------------------------------------------------- Gram-Schmidt

def schur_by_gram_schmidt(n: int) -> dict[Partition, SymFunc]:
    """Schur functions of weight n via Gram-Schmidt on the monomial basis.

    Orthogonalizes (m_lam) in the ascending lexicographic order without
    normalizing; the outputs provably come out with scalar square exactly 1
    and coincide with the character-expansion route.  Returned in the m
    basis, keyed by partition.
    """
    if type(n) is not int or n < 1:  # bool is an int subclass
        raise ValueError(f"weight must be a positive integer: {n!r}")
    lams = partitions_of(n)
    m_in_p = _m_in_p_all(n)
    gram = {
        (a, b): kernels.scalar_terms(m_in_p[a], m_in_p[b])
        for i, a in enumerate(lams)
        for b in lams[: i + 1]
    }

    def pairing(u: dict, v: dict) -> Fraction:
        total = _ZERO
        for a, ca in u.items():
            for b, cb in v.items():
                g = gram.get((a, b))
                if g is None:
                    g = gram[(b, a)]
                total += ca * cb * g
        return total

    vectors: list[dict] = []
    result: dict[Partition, SymFunc] = {}
    for lam in lams:
        v: dict[Partition, Fraction] = {lam: _ONE}
        for w in vectors:
            coeff = pairing(v, w) / pairing(w, w)
            if coeff:
                for b, cb in w.items():
                    s = v.get(b, _ZERO) - coeff * cb
                    if s:
                        v[b] = s
                    elif b in v:
                        del v[b]
        vectors.append(v)
        result[lam] = SymFunc._of("m", v, n)
    return result
