"""Conversions between the classical bases and the power-sum coordinates.

The p basis is the canonical coordinate system; every conversion routes
through it.  h and e are handled by the Newton recurrences

    n h_n = sum_{k=1..n} p_k h_{n-k}        n e_n = sum_{k=1..n} (-1)^(k-1) p_k e_{n-k}

s by symmetric-group characters, and m by the duality <m_lam, h_mu> = delta,
which per degree is a triangular system in the lexicographic order.

Characters come by two independent routes, both Murnaghan-Nakayama:

* the conversions (p -> s in ``from_p``, s -> p in ``to_p``) read integer
  character *columns* p_mu = sum_lam chi^lam(mu) s_lam, built per cycle
  type mu on beta-set bitmasks from the column of mu's tail, so whole
  weights share their stripped tails;
* ``character`` / ``character_table`` strip border strips from one row
  lam at a time through the (lam, mu) memo ``_char_cache``.  Only the
  oracle uses this route (``kronecker_coefficient(oracle=True)`` and the
  tests), so the pipeline is never checked against itself.

All expansion tables are memoized in append-only caches, so concurrent
readers are safe (a duplicated computation writes the same value twice);
``clear_caches`` empties them.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class CharacterTable:
    """All character values chi^lam(mu) for lam, mu partitions of n."""

    n: int
    values: dict

    def __getitem__(self, key) -> int:
        lam, mu = key
        return self.values[(Partition(lam), Partition(mu))]


def character_table(n: int) -> CharacterTable:
    lams = partitions_of(n)
    return CharacterTable(n, {(l, m): character(l, m) for l in lams for m in lams})


# ------------------------------------------------------- character columns
#
# A partition lam of n is held as the bitmask of its n beta numbers
# lam_i + n - i (i = 1..n, lam padded with zeros).  Adding a border strip
# of size t moves one bead from b to the empty slot b + t, with sign
# (-1)^(beads strictly between); lifting an (n - t)-bead mask to n beads
# shifts it by t and fills the t lowest slots.

_column_cache: dict[tuple, dict[int, int]] = {}
_index_cache: dict[int, list[tuple[Partition, int]]] = {}


def _beta_mask(lam: tuple, n: int) -> int:
    mask = (1 << (n - len(lam))) - 1
    for i, part in enumerate(lam):
        mask |= 1 << (part + n - 1 - i)
    return mask


def _weight_index(n: int) -> list[tuple[Partition, int]]:
    """(lam, beta mask) for every lam of weight n, in ascending order."""
    cached = _index_cache.get(n)
    if cached is None:
        cached = [(lam, _beta_mask(lam, n)) for lam in partitions_of(n)]
        _index_cache[n] = cached
    return cached


def _column(mu: tuple) -> dict[int, int]:
    """Beta mask of lam -> chi^lam(mu), nonzero values only.

    Murnaghan-Nakayama read backwards: every lam of weight |mu| arises from
    a partition in the column of mu[1:] by adding one border strip of size
    mu_1, and chi^lam(mu) sums the signed tail values over those strips.
    """
    col = _column_cache.get(mu)
    if col is None:
        if not mu:
            col = {0: 1}
        else:
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
            col = {k: v for k, v in acc.items() if v}
        _column_cache[mu] = col
    return col


# --------------------------------------------------- basis elements over p

_h_cache: dict[int, dict] = {}
_e_cache: dict[int, dict] = {}
_hlam_cache: dict[tuple, dict] = {}
_elam_cache: dict[tuple, dict] = {}
_s_cache: dict[tuple, dict] = {}
_m_cache: dict[int, dict[tuple, dict]] = {}


def _with_part(key: tuple, k: int) -> tuple:
    return tuple(sorted(key + (k,), reverse=True))


def _h_in_p(n: int) -> dict:
    cached = _h_cache.get(n)
    if cached is None:
        if n == 0:
            cached = {(): _ONE}
        else:
            acc: dict = {}
            for k in range(1, n + 1):
                for key, c in _h_in_p(n - k).items():
                    nk = _with_part(key, k)
                    acc[nk] = acc.get(nk, _ZERO) + c
            cached = {key: c / n for key, c in acc.items()}
        _h_cache[n] = cached
    return cached


def _e_in_p(n: int) -> dict:
    cached = _e_cache.get(n)
    if cached is None:
        if n == 0:
            cached = {(): _ONE}
        else:
            acc: dict = {}
            for k in range(1, n + 1):
                sign = 1 if k % 2 else -1
                for key, c in _e_in_p(n - k).items():
                    nk = _with_part(key, k)
                    acc[nk] = acc.get(nk, _ZERO) + sign * c
            cached = {key: c / n for key, c in acc.items() if c}
        _e_cache[n] = cached
    return cached


def _product_in_p(lam: tuple, factor, cache: dict) -> dict:
    cached = cache.get(lam)
    if cached is None:
        cached = {(): _ONE}
        weight = sum(lam)
        for part in lam:
            cached = kernels.mul_terms(cached, factor(part), weight)
        cache[lam] = cached
    return cached


def _hlam_in_p(lam: tuple) -> dict:
    return _product_in_p(lam, _h_in_p, _hlam_cache)


def _elam_in_p(lam: tuple) -> dict:
    return _product_in_p(lam, _e_in_p, _elam_cache)


def _s_in_p(lam: tuple) -> dict:
    """[p_mu] s_lam = chi^lam(mu) / z(mu), read across the weight's columns."""
    cached = _s_cache.get(lam)
    if cached is None:
        n = sum(lam)
        mask = _beta_mask(lam, n)
        cached = {}
        for mu, _ in _weight_index(n):
            chi = _column(mu).get(mask)
            if chi:
                cached[mu] = Fraction(chi, z(mu))
        _s_cache[lam] = cached
    return cached


def _m_in_p_all(n: int) -> dict[tuple, dict]:
    """p-expansions of every m_lam with lam a partition of n.

    Solves  sum_mu c_mu * z(mu) * [p_mu](h_kappa) = delta(lam, kappa)  for
    all kappa of weight n.  In ascending lexicographic order the system is
    triangular because h_kappa only involves p_mu with mu <= kappa.
    """
    cached = _m_cache.get(n)
    if cached is None:
        lams = [tuple(lam) for lam in partitions_of(n)]
        rows = {kappa: _hlam_in_p(kappa) for kappa in lams}
        zs = {mu: z(mu) for mu in lams}
        cached = {}
        for lam in lams:
            coords: dict[tuple, Fraction] = {}
            for kappa in lams:
                row = rows[kappa]
                acc = _ONE if kappa == lam else _ZERO
                for mu, c in coords.items():
                    r = row.get(mu)
                    if r is not None:
                        acc -= c * zs[mu] * r
                if acc:
                    coords[kappa] = acc / (zs[kappa] * row[kappa])
            cached[lam] = coords
        _m_cache[n] = cached
    return cached


def _basis_element_in_p(basis: str, lam: tuple) -> dict:
    if basis == "h":
        return _hlam_in_p(lam)
    if basis == "e":
        return _elam_in_p(lam)
    if basis == "s":
        return _s_in_p(lam)
    if basis == "m":
        return _m_in_p_all(sum(lam))[lam]
    raise BasisError(f"no p-expansion for basis {basis!r}")


def clear_caches() -> None:
    """Empty every memo of this module: the character memo of the oracle,
    the character columns and the p-expansions of basis elements.

    Only for cold measurements and tests; values computed before stay
    valid, so the call is harmless apart from the recomputation it causes.
    """
    for cache in (_char_cache, _column_cache, _index_cache, _h_cache, _e_cache,
                  _hlam_cache, _elam_cache, _s_cache, _m_cache):
        cache.clear()


# -------------------------------------------------------------- conversions

def to_p(f: SymFunc) -> SymFunc:
    """Re-express f over the power sums; exact, same truncation degree."""
    if f.basis == "p":
        return f
    out: dict[tuple, Fraction] = {}
    for lam, c in f.terms.items():
        for mu, d in _basis_element_in_p(f.basis, tuple(lam)).items():
            s = out.get(mu, _ZERO) + c * d
            if s:
                out[mu] = s
            elif mu in out:
                del out[mu]
    return SymFunc("p", out, f.degree)


def from_p(f: SymFunc, target: str) -> SymFunc:
    """Exact change of basis from p to the target basis.

    m coefficients come straight from the scalar product (duality with h);
    s coefficients sum the character columns of the input's cycle types
    over one common denominator per weight; h and e coefficients by a
    per-degree triangular solve against their p-expansions.
    """
    if target not in BASES:
        raise BasisError(f"unknown basis {target!r}; expected one of {BASES}")
    if f.basis != "p":
        raise BasisError("from_p expects a p-basis input")
    if target == "p":
        return f
    out: dict[tuple, Fraction] = {}
    for n in f.weights():
        piece = {tuple(k): c for k, c in f.terms.items() if k.weight == n}
        out.update(_extract_weight(piece, n, target))
    return SymFunc(target, out, f.degree)


def _extract_weight(piece: dict, n: int, target: str) -> dict:
    out: dict[tuple, Fraction] = {}
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
    lams = [tuple(lam) for lam in partitions_of(n)]
    if target == "m":
        for lam in lams:
            row = _hlam_in_p(lam)
            d = _ZERO
            for mu, c in piece.items():
                r = row.get(mu)
                if r is not None:
                    d += c * z(mu) * r
            if d:
                out[lam] = d
        return out
    # h and e: peel the lexicographically largest remaining term; basis
    # element lam only involves p_mu with mu <= lam, with nonzero diagonal.
    element = _hlam_in_p if target == "h" else _elam_in_p
    residual = dict(piece)
    for lam in reversed(lams):
        c = residual.get(lam)
        if not c:
            continue
        row = element(lam)
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
    lams = [tuple(lam) for lam in partitions_of(n)]
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
        v: dict[tuple, Fraction] = {lam: _ONE}
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
        result[Partition(lam)] = SymFunc("m", v, n)
    return result
