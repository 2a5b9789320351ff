"""Conversions between the classical bases and the power-sum coordinates.

The p basis is the canonical coordinate system; every conversion routes
through it:

* h and p are multiplicative, so each direction is a table memoized per
  partition and built on the partition trie as the character columns are,
  both by one builder (``_multiplicative_table``): a one-part key is its
  closed form, and a longer key is its first part's table times its tail's;
* e as omega(h): the involution omega sends h_lam to e_lam and acts on
  power sums as p_mu -> (-1)^(|mu| - len(mu)) p_mu;
* m and s by the Hall duality: for dual bases b and b* (m* = h, s* = s),
  [p_mu] b_lam = [b*_lam] p_mu / z(mu).  m goes both ways by rows read
  across the h/p tables of its weight, [p_mu] m_lam = [h_lam] p_mu / z(mu)
  and [m_lam] p_mu = z(mu) [p_mu] h_lam; s -> p reads chi^lam(mu) / z(mu)
  across the character columns.  The p rows of h_n, m_lam and s_lam
  embed class values by one kernel, ``kernels.class_terms``.

Characters come by two independent routes, both Murnaghan-Nakayama:

* the conversions add border strips on beta-set bitmasks, one helper
  (``_add_strips``: p_t times a Schur vector) for both directions.  One
  Horner driver, ``_p_times``, applies a sum of power sums to a Schur
  vector: the terms are grouped by their smallest part t, each group is
  applied with t peeled off, and p_t multiplies the group's sum once.
  p -> s in ``from_p`` is that driver on the empty partition, on the
  input's numerators; each mask of the sum is decoded back to its
  partition (``_mask_partition``), so a sparse result costs only its own
  terms.
  s -> p in ``to_p`` reads integer character *columns*
  p_mu = sum_lam chi^lam(mu) s_lam, memoized per cycle type mu and built
  from the column of mu's tail.  Each lam is read across the columns once,
  into the dense character row ``_char_row`` (chi^lam on every class, in
  ``partitions_of`` order), which has two readers: the s -> p row
  ``_s_in_p`` is that row over z(mu), by ``kernels.class_terms``, and
  the default ``kronecker_coefficient`` is one dot product of three rows
  with the class sizes ``_class_sizes``.  Both rest on the columns and
  not on ``character``.
  ``exp_in_s`` runs the same Horner driver to build exp(f) in s straight
  from a p-basis exponent f, by the one driver of the Euler recurrence,
  ``_kernels._exp_slices``, on Schur vectors, so a series given by a short
  exponent is never expanded in p.
  It and ``from_p`` of the p-expansion are two routes to the same
  result; the support report runs both;
* ``character`` / ``character_table`` strip border strips from one row
  lam at a time through the (lam, mu) memo ``_char_cache``.  Only the
  oracle uses this route (``kronecker_coefficient(oracle=True)`` and the
  tests), so the pipeline is never checked against itself.

The character memo of the oracle is a plain dict; ``_column``,
``_char_row``, ``_class_sizes``, ``_hlam_in_p``, ``_plam_in_h`` and
``_p_in_m`` are ``functools.cache`` memos, and ``_s_in_p`` and ``_m_in_p``
build each row from them per call.  The memos are append-only, so
concurrent readers are safe (a duplicated computation stores it twice);
``symkron.clear_caches``, which lists every memo of the package, empties
them all.  Every change-of-basis row, like every value's ``terms``, is
held in the kernels' read-only integer form ``IntTerms``.  A conversion
is one ``kernels.sum_terms`` of the rows by the input's numerators, a
new integer form, so no value holds a memo row as its ``terms``.
"""

from __future__ import annotations

import functools
from math import factorial, prod

from symkron import _kernels as kernels
from symkron.partitions import Partition, _natural, partitions_of, z
from symkron.series import BASES, BasisError, SymFunc, _constant_free_p


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
    return {(l, m): _char(l, m) for l in lams for m in lams}


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


def _mask_partition(mask: int) -> Partition:
    """The partition of a beta mask: its j-th lowest bead (from 0) at slot
    b is the part b - j.  Those parts are positive and come out weakly
    decreasing, so the ``Partition`` is built without re-validating them."""
    parts = []
    j = 0
    while mask:
        bead = mask & -mask
        mask ^= bead
        part = bead.bit_length() - 1 - j
        if part:
            parts.append(part)
        j += 1
    parts.reverse()
    return tuple.__new__(Partition, parts)


def _add_strips(vec, t: int, acc: dict[int, int]) -> None:
    """acc += p_t * vec over s, keyed by beta mask, with vec given as
    (mask, value) pairs: each partition in vec grows by every border strip
    of size t, with the Murnaghan-Nakayama sign.

    A partition of weight w is held as w beads and lifted to w + t beads
    before its strips are added, so the bead count is the weight and the
    entries of a mixed-weight vec never collide.
    """
    fill = (1 << t) - 1
    between = (1 << (t - 1)) - 1
    get = acc.get
    for tail, chi in vec:
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


def _p_times(acc: dict[int, int], rows, vec) -> None:
    """acc += sum over the rows (mu, c) of c p_mu * vec, over s keyed by
    beta mask, with vec given as (mask, value) pairs.

    Horner's rule on the partition trie: the rows are grouped by their
    smallest part t, each group is applied to vec with t peeled off, and
    p_t multiplies the group's sum once, by ``_add_strips``; the empty key
    adds c * vec.
    """
    groups: dict[int, list] = {}
    get = acc.get
    for mu, c in rows:
        if mu:
            groups.setdefault(mu[-1], []).append((mu[:-1], c))
        else:
            for mask, v in vec:
                acc[mask] = get(mask, 0) + c * v
    for t, group in groups.items():
        inner: dict[int, int] = {}
        _p_times(inner, group, vec)
        _add_strips(inner.items(), t, acc)


@functools.cache
def _column(mu: tuple) -> dict[int, int]:
    """Beta mask of lam -> chi^lam(mu), nonzero values only; read by the
    dense character rows ``_char_row`` only.

    Murnaghan-Nakayama read backwards: every lam of weight |mu| arises from
    a partition in the column of mu[1:] by adding one border strip of size
    mu_1, and chi^lam(mu) sums the signed tail values over those strips.
    """
    if not mu:
        return {0: 1}
    acc: dict[int, int] = {}
    _add_strips(_column(mu[1:]).items(), mu[0], acc)
    return {k: v for k, v in acc.items() if v}


# ------------------------------------------------- change-of-basis tables

def _omega(terms: kernels.IntTerms) -> kernels.IntTerms:
    """The involution omega over p: p_mu -> (-1)^(|mu| - len(mu)) p_mu."""
    return kernels.IntTerms({mu: -v if (sum(mu) - len(mu)) % 2 else v
                             for mu, v in terms.nums.items()}, terms.den)


_EMPTY_ROW = kernels.IntTerms({Partition(): 1}, 1)


def _multiplicative_table(one_part):
    """The memoized table of h over p, or of p over h, on the partition
    trie: () is the empty row, a one-part key n its closed form
    ``one_part(n)``, a longer key its first part's table times its tail's.
    The closed forms: h_n = sum over mu |- n of p_mu / z(mu), and p_n =
    sum over lam |- n of (-1)^(l-1) n (l-1)! / prod_i m_i! h_lam, integers
    over 1, where lam has l parts and multiplicities m_i."""
    @functools.cache
    def table(lam: tuple) -> kernels.IntTerms:
        if len(lam) > 1:
            return kernels.mul_terms(table(lam[:1]), table(lam[1:]), sum(lam))
        return one_part(lam[0]) if lam else _EMPTY_ROW
    return table


_hlam_in_p = _multiplicative_table(lambda n: kernels.class_terms(
    (mu, 1) for mu in partitions_of(n)))
_plam_in_h = _multiplicative_table(lambda n: kernels.IntTerms(
    {lam: (-1) ** (len(lam) - 1) * n * factorial(len(lam) - 1)
          // prod(map(factorial, lam.multiplicities().values()))
     for lam in partitions_of(n)}, 1))


@functools.cache
def _class_sizes(n: int) -> tuple:
    """n! / z(mu), the size of the class of cycle type mu, for every
    mu |- n in ``partitions_of(n)`` order."""
    order = factorial(n)
    return tuple(order // z(mu) for mu in partitions_of(n))


@functools.cache
def _char_row(lam: tuple) -> tuple:
    """chi^lam(mu) for every mu |- |lam| in ``partitions_of`` order: row
    lam of the character table, read once across the columns."""
    n = sum(lam)
    mask = _beta_mask(lam, n)
    return tuple(_column(mu).get(mask, 0) for mu in partitions_of(n))


def _s_in_p(lam: tuple) -> kernels.IntTerms:
    """[p_mu] s_lam = chi^lam(mu) / z(mu), from the dense character row."""
    return kernels.class_terms(zip(partitions_of(sum(lam)), _char_row(lam)))


def _m_in_p(lam: tuple) -> kernels.IntTerms:
    """[p_mu] m_lam = [h_lam] p_mu / z(mu), read across the p -> h rows,
    which are over 1."""
    return kernels.class_terms((mu, _plam_in_h(mu).nums.get(lam, 0))
                               for mu in partitions_of(sum(lam)))


@functools.cache
def _p_in_m(mu: tuple) -> kernels.IntTerms:
    """[m_lam] p_mu = z(mu) [p_mu] h_lam, read across the h -> p rows: a
    non-negative integer (p_mu is a sum of monomials with integer
    coefficients), so each entry is an exact quotient and the row is over 1."""
    zmu = z(mu)
    out = {}
    for lam in partitions_of(sum(mu)):
        row = _hlam_in_p(lam)
        v = row.nums.get(mu)
        if v:
            out[lam] = v * zmu // row.den
    return kernels.IntTerms(out, 1)


# -------------------------------------------------------------- conversions

def _change_basis(terms: kernels.IntTerms, table) -> kernels.IntTerms:
    """sum over lam of terms[lam] * table(lam), as a change of basis
    (``to_p``, ``from_p``) or a substitution (``products.plethysm``): one
    ``kernels.sum_terms`` of the rows, by the input's numerators over its
    denominator, into a new integer form even for a single term."""
    return kernels.sum_terms([(v, table(lam)) for lam, v in terms.nums.items()], terms.den)


# e_lam = omega(h_lam) and omega is linear: e runs through the h tables,
# with omega applied on the p side.
_TO_P = {"h": _hlam_in_p, "e": _hlam_in_p, "m": _m_in_p, "s": _s_in_p}
_FROM_P = {"h": _plam_in_h, "e": _plam_in_h, "m": _p_in_m}


def to_p(f: SymFunc) -> SymFunc:
    """Re-express f over the power sums; exact, same truncation degree."""
    if f.basis == "p":
        return f
    out = _change_basis(f.terms, _TO_P[f.basis])
    if f.basis == "e":
        out = _omega(out)
    return SymFunc._of("p", out, f.degree)


def from_p(f: SymFunc, target: str) -> SymFunc:
    """Exact change of basis from p to the target basis.

    h and e coefficients multiply out the p -> h table (e as the h
    coefficients of omega(f), since omega(e_lam) = h_lam); m coefficients
    are the duality rows [m_lam] p_mu = z(mu) [p_mu] h_lam, read across the
    h -> p table.  s coefficients are the Horner driver ``_p_times``
    applied to the empty partition, p_t times a Schur vector adding border
    strips of size t, over one common denominator.
    """
    if target not in BASES:
        raise BasisError(f"unknown basis {target!r}; expected one of {BASES}")
    if f.basis != "p":
        raise BasisError("from_p expects a p-basis input")
    if target == "p":
        return f
    if target == "s":
        # Over one common denominator the Horner sum runs on Python ints.
        acc: dict[int, int] = {}
        _p_times(acc, f.terms.nums.items(), ((0, 1),))
        out = {_mask_partition(mask): v for mask, v in acc.items() if v}
        return SymFunc._of("s", kernels.IntTerms.reduced(out, f.terms.den), f.degree)
    terms = _omega(f.terms) if target == "e" else f.terms
    return SymFunc._of(target, _change_basis(terms, _FROM_P[target]), f.degree)


def exp_in_s(f: SymFunc) -> SymFunc:
    """exp of a constant-free p-basis series, as an s-basis series truncated
    at the same degree.

    The Euler recurrence of ``kernels._exp_slices``, which ``exp_series``
    runs on coded p keys, here run in Schur coordinates: each slice of
    exp(f) is a vector keyed by beta mask, and the terms of each slice of
    f act on it by the Horner driver ``_p_times`` that ``from_p`` runs.  An
    exponent with a few terms, as the named series have, never expands
    exp(f) in p.
    """
    _constant_free_p(f, "exp_in_s")
    slices: dict[int, list] = {}
    for mu, v in f.terms.nums.items():
        slices.setdefault(sum(mu), []).append((mu, v))
    den, g = kernels._exp_slices(slices, f.terms.den, f.degree, _p_times)
    return SymFunc._of("s", kernels.IntTerms(
        {_mask_partition(mask): v * scale for rows, scale in g for mask, v in rows}, den),
        f.degree)


# ------------------------------------------------------------- Gram-Schmidt

def schur_by_gram_schmidt(n: int) -> dict[Partition, SymFunc]:
    """Schur functions of weight n via Gram-Schmidt on the monomial basis.

    Orthogonalizes (m_lam) in the ascending lexicographic order without
    normalizing; the outputs provably come out with scalar square exactly 1
    and coincide with the character-expansion route.  Returned in the m
    basis, keyed by partition.

    Each vector is held in m (the result) and in p, where it starts from
    the m -> p row ``_m_in_p`` and is paired by ``kernels.scalar_terms``.
    Nothing else is read, no character and no p -> m row, so the oracle
    shares no row with the route it checks.
    """
    _natural(n, "weight", 1)
    done: dict[Partition, tuple] = {}  # lam -> (m vector, p vector, scalar square)
    for lam in partitions_of(n):
        vm = SymFunc.single("m", lam, n)
        vp = SymFunc._of("p", _m_in_p(lam), n)
        for wm, wp, norm in done.values():
            c = kernels.scalar_terms(vp.terms, wp.terms) / norm
            if c:
                vm -= wm.scale(c)
                vp -= wp.scale(c)
        done[lam] = (vm, vp, kernels.scalar_terms(vp.terms, vp.terms))
    return {lam: vm for lam, (vm, _, _) in done.items()}
