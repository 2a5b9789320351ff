"""Conversions between the classical bases and the power-sum coordinates.

The p basis is the canonical coordinate system; every conversion routes
through it, and one table of h_lam over p serves h, e and m:

* h by the Newton recurrence  n h_n = sum_{k=1..n} p_k h_{n-k};
* e as omega(h): the involution omega sends h_lam to e_lam and acts on
  power sums as p_mu -> (-1)^(|mu| - len(mu)) p_mu;
* m by the duality <m_lam, h_mu> = delta, so [m_lam] f = <f, h_lam> and
  [p_mu] m_lam = [h_lam] p_mu / z(mu);
* s by symmetric-group characters.

Characters come by two independent routes, both Murnaghan-Nakayama:

* the conversions (p -> s in ``from_p``, s -> p in ``to_p``) read integer
  character *columns* p_mu = sum_lam chi^lam(mu) s_lam, built per cycle
  type mu on beta-set bitmasks from the column of mu's tail, so whole
  weights share their stripped tails;
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
from math import lcm

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


@functools.cache
def _column(mu: tuple) -> dict[int, int]:
    """Beta mask of lam -> chi^lam(mu), nonzero values only.

    Murnaghan-Nakayama read backwards: every lam of weight |mu| arises from
    a partition in the column of mu[1:] by adding one border strip of size
    mu_1, and chi^lam(mu) sums the signed tail values over those strips.
    """
    if not mu:
        return {0: 1}
    t = mu[0]
    fill = (1 << t) - 1
    between = (1 << (t - 1)) - 1
    acc: dict[int, int] = {}
    for tail, chi in _column(mu[1:]).items():
        mask = (tail << t) | fill
        free = mask & ~(mask >> t)
        while free:
            bead = free & -free
            free ^= bead
            grown = mask ^ bead ^ (bead << t)
            if ((mask >> bead.bit_length()) & between).bit_count() & 1:
                acc[grown] = acc.get(grown, 0) - chi
            else:
                acc[grown] = acc.get(grown, 0) + chi
    return {k: v for k, v in acc.items() if v}


# --------------------------------------------------- basis elements over p

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
def _hlam_in_p(lam: tuple) -> dict:
    out = {Partition(): _ONE}
    weight = sum(lam)
    for part in lam:
        out = kernels.mul_terms(out, _h_in_p(part), weight)
    return out


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
    so the h peel of each p_mu, transposed, gives every m_lam at once.
    """
    lams = partitions_of(n)
    out: dict[Partition, dict] = {lam: {} for lam in lams}
    for mu in lams:
        zmu = z(mu)
        for lam, c in _extract_weight({mu: _ONE}, n, "h").items():
            out[lam][mu] = c / zmu
    return out


def _basis_element_in_p(basis: str, lam: tuple) -> dict:
    if basis == "h":
        return _hlam_in_p(lam)
    if basis == "s":
        return _s_in_p(lam)
    return _m_in_p_all(sum(lam))[lam]


def clear_caches() -> None:
    """Empty every memo of this module: the character memo of the oracle,
    the character columns and the p-expansions of basis elements.

    Only for cold measurements and tests; values computed before stay
    valid, so the call is harmless apart from the recomputation it causes.
    """
    _char_cache.clear()
    for memo in (_column, _weight_index, _h_in_p, _hlam_in_p, _s_in_p, _m_in_p_all):
        memo.cache_clear()


# -------------------------------------------------------------- conversions

def to_p(f: SymFunc) -> SymFunc:
    """Re-express f over the power sums; exact, same truncation degree."""
    if f.basis == "p":
        return f
    # e_lam = omega(h_lam), and omega is linear: expand as h, then twist.
    basis = "h" if f.basis == "e" else f.basis
    out: dict[Partition, Fraction] = {}
    for lam, c in f.terms.items():
        for mu, d in _basis_element_in_p(basis, lam).items():
            s = out.get(mu, _ZERO) + c * d
            if s:
                out[mu] = s
            elif mu in out:
                del out[mu]
    if f.basis == "e":
        out = _omega(out)
    return SymFunc._of("p", out, f.degree)


def from_p(f: SymFunc, target: str) -> SymFunc:
    """Exact change of basis from p to the target basis.

    m coefficients come straight from the scalar product (duality with h);
    s coefficients sum the character columns of the input's cycle types
    over one common denominator per weight; h coefficients by a per-degree
    triangular solve against the h_lam, and e coefficients by the same
    solve on omega(f), since omega(e_lam) = h_lam.
    """
    if target not in BASES:
        raise BasisError(f"unknown basis {target!r}; expected one of {BASES}")
    if f.basis != "p":
        raise BasisError("from_p expects a p-basis input")
    if target == "p":
        return f
    out: dict[Partition, Fraction] = {}
    for n in f.weights():
        piece = {k: c for k, c in f.terms.items() if k.weight == n}
        out.update(_extract_weight(piece, n, target))
    return SymFunc._of(target, out, f.degree)


def _extract_weight(piece: dict, n: int, target: str) -> dict:
    out: dict[Partition, Fraction] = {}
    if target == "s":
        # Over one common denominator the column sums are integer sums.
        denom = lcm(*(c.denominator for c in piece.values()))
        acc: dict[int, int] = {}
        for mu, c in piece.items():
            scale = c.numerator * (denom // c.denominator)
            for mask, chi in _column(mu).items():
                acc[mask] = acc.get(mask, 0) + scale * chi
        for lam, mask in _weight_index(n):
            v = acc.get(mask)
            if v:
                out[lam] = Fraction(v, denom)
        return out
    lams = partitions_of(n)
    if target == "m":
        # [m_lam] f = <f, h_lam> by duality.
        for lam in lams:
            d = kernels.scalar_terms(piece, _hlam_in_p(lam))
            if d:
                out[lam] = d
        return out
    # h, and e on omega(f): peel the lexicographically largest remaining
    # term; h_lam only involves p_mu with mu <= lam, with nonzero diagonal.
    residual = _omega(piece) if target == "e" else dict(piece)
    for lam in reversed(lams):
        c = residual.get(lam)
        if not c:
            continue
        row = _hlam_in_p(lam)
        d = c / row[lam]
        out[lam] = d
        for mu, r in row.items():
            s = residual.get(mu, _ZERO) - d * r
            if s:
                residual[mu] = s
            elif mu in residual:
                del residual[mu]
    if any(residual.values()):
        raise ArithmeticError(f"triangular extraction left a residue at weight {n}")
    return out


# ------------------------------------------------------------- Gram-Schmidt

def schur_by_gram_schmidt(n: int) -> dict[Partition, SymFunc]:
    """Schur functions of weight n via Gram-Schmidt on the monomial basis.

    Orthogonalizes (m_lam) in the ascending lexicographic order without
    normalizing; the outputs provably come out with scalar square exactly 1
    and coincide with the character-expansion route.  Returned in the m
    basis, keyed by partition.
    """
    if n < 1:
        raise ValueError("weight must be at least 1")
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
