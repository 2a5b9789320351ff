"""The identity suite: Kronecker multiplication table of the five series,
the S (x) S product identity, the Schur-support checks for SHinv and SEinv,
and the closed forms of the per-variable Kronecker factors of S.

Each factor closed form g_n is checked as the power series with g_0 = 1
that solves D g' = N g, on its integer class values, so a passing check
builds no ``Fraction`` (``verify_factor_closed_forms``).

Reports are deterministic in everything except wall time: identical inputs
produce the same status and the same first discrepancy, ordered by
(weight, lexicographic partition order).
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import zip_longest
from math import factorial, perm

from symkron import named
from symkron.bases import _omega, exp_in_s, from_p
from symkron.named import NamedSeries
from symkron.partitions import Partition, _natural, partitions_of
from symkron.products import kron_factor, kronecker
from symkron.series import BasisError, SymFunc, _Value, term_order

_ZERO = Fraction(0)
_ONE = Fraction(1)

_H = NamedSeries.H
_E = NamedSeries.E
_S = NamedSeries.S
_SH = NamedSeries.SHINV
_SE = NamedSeries.SEINV
_MODD = NamedSeries.MODD
_MEVEN = NamedSeries.MEVEN
_N = NamedSeries.N
_P = NamedSeries.P
_G = NamedSeries.G

#: Expected right-hand sides for the 15 unordered pairs from {H,E,S,SHinv,SEinv},
#: as products of named series.
TABLE = {
    (_H, _H): (_H,),
    (_H, _E): (_E,),
    (_H, _S): (_S,),
    (_H, _SH): (_SH,),
    (_H, _SE): (_SE,),
    (_E, _E): (_H,),
    (_E, _S): (_S,),
    (_E, _SH): (_SE,),
    (_E, _SE): (_SH,),
    (_S, _S): (_G, _MODD),
    (_S, _SH): (_G, _N),
    (_S, _SE): (_G, _N),
    (_SH, _SH): (_G, _MEVEN),
    (_SH, _SE): (_G, _P),
    (_SE, _SE): (_G, _MEVEN),
}


def table_pairs() -> list[tuple[NamedSeries, NamedSeries]]:
    """The 15 table entries in canonical order."""
    return list(TABLE)


def expected_product(a, b) -> tuple[NamedSeries, ...]:
    """Right-hand side tags for the pair (a, b); order-insensitive lookup."""
    a = NamedSeries.from_tag(a)
    b = NamedSeries.from_tag(b)
    rhs = TABLE.get((a, b)) or TABLE.get((b, a))
    if rhs is None:
        raise ValueError(f"({a.value}, {b.value}) is not a table pair")
    return rhs


class Discrepancy(_Value):
    """First differing coefficient of a failed comparison.  Immutable and
    hashable; equal when all three fields are."""

    __slots__ = ("partition", "lhs", "rhs")

    def __init__(self, partition: Partition, lhs: Fraction, rhs: Fraction):
        _Value.__init__(self, partition, lhs, rhs)

    def to_json_dict(self) -> dict:
        return {"partition": list(self.partition),
                "lhs": str(self.lhs),
                "rhs": str(self.rhs)}


class VerificationReport(_Value):
    """The outcome of one identity check.  Immutable and hashable; equal
    when all five fields are.  ``status`` is "pass" or "fail"."""

    __slots__ = ("identity", "degree", "status", "first_discrepancy", "millis")

    def __init__(self, identity: str, degree: int, status: str,
                 first_discrepancy: Discrepancy | None, millis: int):
        _Value.__init__(self, identity, degree, status, first_discrepancy, millis)

    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "degree": self.degree,
            "status": self.status,
            "first_discrepancy": (None if self.first_discrepancy is None
                                  else self.first_discrepancy.to_json_dict()),
            "millis": self.millis,
        }


def first_difference(lhs: SymFunc, rhs: SymFunc) -> Discrepancy | None:
    """First coefficient where the two series differ: the least key of
    lhs - rhs in (weight, lexicographic) order; None when every
    coefficient matches.

    Both series must share a basis (BasisError otherwise) and a truncation
    degree (ValueError otherwise): the coefficients of different bases do
    not compare, and above the smaller degree they are unknown, not zero.
    """
    if lhs.basis != rhs.basis:
        raise BasisError(f"cannot compare a {lhs.basis}-basis series "
                         f"with a {rhs.basis}-basis series")
    if lhs.degree != rhs.degree:
        raise ValueError(f"cannot compare series truncated at degrees "
                         f"{lhs.degree} and {rhs.degree}")
    if lhs.terms == rhs.terms:
        return None
    key = min((lhs - rhs).terms, key=term_order)
    return Discrepancy(key, lhs.coefficient(key), rhs.coefficient(key))


def _report(identity: str, degree: int, started: float,
            disc: Discrepancy | None) -> VerificationReport:
    millis = int(round((time.perf_counter() - started) * 1000))
    status = "pass" if disc is None else "fail"
    return VerificationReport(identity, degree, status, disc, millis)


def _compare_product(identity: str, a: NamedSeries, b: NamedSeries,
                     rhs_tags: tuple, degree: int) -> VerificationReport:
    """kronecker(expand(a), expand(b)) against the product of the rhs series,
    exactly, degree by degree."""
    started = time.perf_counter()
    lhs = kronecker(named.expand(a, degree), named.expand(b, degree))
    rhs = named.expand(rhs_tags[0], degree)
    for tag in rhs_tags[1:]:
        rhs = rhs * named.expand(tag, degree)
    return _report(identity, degree, started, first_difference(lhs, rhs))


def verify_table_entry(a, b, degree: int) -> VerificationReport:
    """Check one table entry: kronecker(expand(a), expand(b)) against the
    product of the expected named series."""
    a = NamedSeries.from_tag(a)
    b = NamedSeries.from_tag(b)
    rhs_tags = expected_product(a, b)
    identity = f"{a.value}⊗{b.value}={'·'.join(t.value for t in rhs_tags)}"
    return _compare_product(identity, a, b, rhs_tags, degree)


def verify_intro_identity(degree: int) -> VerificationReport:
    """S (x) S against Modd * G.

    The same statement as the (S, S) table entry, kept as a separate report
    because it is stated independently; the redundancy is cheap and guards
    against table transcription slips.
    """
    return _compare_product("intro:S⊗S=Modd·G", _S, _S, (_MODD, _G), degree)


def _parity_support(degree: int) -> SymFunc:
    """The 0/1 Schur series over lam with all parts even: lam = 2 mu for
    every mu |- m, 2m <= degree."""
    terms = {Partition([2 * part for part in mu]): 1
             for m in range(degree // 2 + 1) for mu in partitions_of(m)}
    return SymFunc("s", terms, degree)


#: The degree up to which the support report also converts the expansion
#: of SEinv itself, the route independent of ``exp_in_s``.
CROSS_CHECK_DEGREE = 12


def verify_support_claims(degree: int) -> VerificationReport:
    """Schur-basis support of SEinv and SHinv, by two routes to s.

    SEinv must be the 0/1 sum of s_lam over lam with all parts even, and
    SHinv the 0/1 sum over lam whose conjugate has all parts even.  The
    report runs three steps and stops at the first failure:

    1. SHinv = omega(SEinv), exactly in p (omega sends p_mu to
       (-1)^(|mu| - len(mu)) p_mu; it is the table entry E (x) SEinv = SHinv
       read weight by weight, since e_n (x) f = omega(f)), so a failure
       there reports a p-basis partition.
    2. The expansion of SEinv, truncated at ``CROSS_CHECK_DEGREE``,
       converted by ``from_p`` and compared with the even-part support.
    3. exp of SEinv's exponent, built in s by ``exp_in_s`` to the full
       degree, compared with the even-part support.

    Steps 2 and 3 are independent routes: the first expands exp in p and
    converts by a Horner sum, the second never leaves s.  The first grows
    with the p-terms of SEinv's expansion (93 at degree 12, 3,259 at 28),
    the second with its exponent's N terms and the Schur vectors they act
    on, so the cross-check stops at degree 12, where it costs a few ms.
    SHinv needs no conversion of its own: omega(s_lam) = s_lam'
    (Macdonald, I.3), so once SHinv = omega(SEinv), SHinv's Schur
    coefficient at lam is SEinv's at lam', and the claimed SHinv support is
    the conjugate of the even-part support.
    """
    started = time.perf_counter()
    se = named.expand(_SE, degree)
    disc = first_difference(SymFunc._of("p", _omega(se.terms), degree),
                            named.expand(_SH, degree))
    if disc is None:
        cross = min(degree, CROSS_CHECK_DEGREE)
        disc = first_difference(from_p(se.truncate(cross), "s"), _parity_support(cross))
    if disc is None:
        disc = first_difference(exp_in_s(named.exponent(_SE, degree)),
                                _parity_support(degree))
    return _report("support:SEinv,SHinv", degree, started, disc)


def verify_factor_closed_forms(n: int, order: int) -> VerificationReport:
    """Closed form of g_n = f_n (x) f_n for the factors f_n of S, checked
    by the first-order equation D g' = N g it solves with g_0 = 1.

    Even n: g_n = (1 - x^2)^(-1/2), so (D, N) = (1 - x^2, x).  Odd n:
    g_n = exp(x / (n (1 - x))) * (1 - x^2)^(-1/2), whose log-derivative
    gives (D, N) = (n (1 - x)^2 (1 + x), (1 + x) + n x (1 - x)).  As
    D(0) != 0, the x^k residual of D g' - N g fixes g_(k+1) from g_0..g_k,
    so g_0 = 1 and zero residuals for k < order hold exactly when g agrees
    with the closed form through x^order.  With D = sum d_i x^i, N = sum
    c_i x^i and class values v_j = n^j j! g_j, n^(k+1) k! times the x^k
    residual is the int sum_(i<=k) perm(k, i) n^i (d_i v_(k+1-i) - n c_i v_(k-i)).
    """
    _natural(order, "order", 1)
    identity = f"factors:n={n}"
    started = time.perf_counter()
    f = named.factor(_S, n, order)
    g = kron_factor(f, f).values
    if n % 2 == 0:
        den, num = (1, 0, -1), (0, 1)
    else:
        den, num = (n, -n, -n, n), (1, 1 + n, -n)

    disc = None
    if g[0] != 1:
        disc = Discrepancy(Partition(()), Fraction(g[0]), _ONE)
    else:
        for k in range(order):
            residual = sum(perm(k, i) * n ** i * (d * g[k + 1 - i] - n * c * g[k - i])
                           for i, (d, c) in enumerate(zip_longest(den, num, fillvalue=0))
                           if i <= k)
            if residual:
                disc = Discrepancy(Partition((n,) * k),
                                   Fraction(residual, n ** (k + 1) * factorial(k)), _ZERO)
                break

    return _report(identity, n * order, started, disc)


#: The verify targets in report order, each a function of the degree that
#: returns its reports: the 15 table entries, the S (x) S identity, the
#: support claims, and the factor closed forms for n <= 4.
TARGETS = {
    "table": lambda degree: [verify_table_entry(a, b, degree) for a, b in table_pairs()],
    "intro": lambda degree: [verify_intro_identity(degree)],
    "support": lambda degree: [verify_support_claims(degree)],
    "factors": lambda degree: [verify_factor_closed_forms(n, max(1, degree))
                               for n in range(1, 5)],
}


def run_suite(degree: int, what: str = "all") -> list[VerificationReport]:
    """The reports of one of the ``TARGETS``, or of all of them for "all",
    in canonical order.  The degree must be a non-negative integer."""
    _natural(degree, "verify degree")
    if what == "all":
        return [report for run in TARGETS.values() for report in run(degree)]
    if what not in TARGETS:
        raise ValueError(f"unknown verify target {what!r}")
    return TARGETS[what](degree)


def suite_exit_status(reports) -> int:
    """0 iff every report passed, else 1."""
    return 0 if all(r.passed() for r in reports) else 1
