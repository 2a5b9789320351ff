import collections
import functools
import itertools
import json
import random
from fractions import Fraction
from math import comb, factorial

import pytest

import symkron
from conftest import fractions_built, int_terms, poly_exp_by_horner, poly_mul, random_symfunc
from symkron import _kernels, bases, kronecker_coefficient, named
from symkron._kernels import IntTerms
from symkron.bases import _omega, character, from_p
from symkron.named import NamedSeries
from symkron.partitions import Partition, partitions_of, z
from symkron.products import (
    UnivariateFactor,
    kron_factor,
    kronecker,
)
from symkron.series import BASES, BasisError, SymFunc, exp_series, term_order
from symkron.verify import CROSS_CHECK_DEGREE
from symkron.verify import (
    Discrepancy,
    expected_product,
    first_difference,
    run_suite,
    suite_exit_status,
    TABLE,
    TARGETS,
    table_pairs,
    verify_factor_closed_forms,
    verify_intro_identity,
    verify_support_claims,
    verify_table_entry,
)

F = Fraction


def test_table_has_fifteen_pairs():
    pairs = table_pairs()
    assert len(pairs) == 15
    five = {NamedSeries.H, NamedSeries.E, NamedSeries.S,
            NamedSeries.SHINV, NamedSeries.SEINV}
    assert {frozenset((a, b)) for a, b in pairs} == \
        {frozenset((a, b)) for a in five for b in five}


def test_expected_product_is_order_insensitive():
    assert expected_product("E", "SHinv") == (NamedSeries.SEINV,)
    assert expected_product("SHinv", "E") == (NamedSeries.SEINV,)
    assert expected_product("S", "S") == (NamedSeries.G, NamedSeries.MODD)
    with pytest.raises(ValueError):
        expected_product("H", "G")


def test_h_row_entry():
    report = verify_table_entry("H", "S", 6)
    assert report.passed()
    assert report.identity == "H⊗S=S"
    assert report.first_discrepancy is None
    # and the left side really is S itself
    lhs = kronecker(named.expand("H", 6), named.expand("S", 6))
    assert lhs == named.expand("S", 6)


def test_table_entry_s_s_degree_two():
    report = verify_table_entry("S", "S", 2)
    assert report.passed()
    lhs = kronecker(named.expand("S", 2), named.expand("S", 2))
    assert lhs == SymFunc("p", {(): 1, (1,): 1, (1, 1): 2}, 2)


#: The Schur support of each table series: every coefficient on it is 1.
SCHUR_SUPPORTS = {
    NamedSeries.H: lambda lam: len(lam) <= 1,
    NamedSeries.E: lambda lam: set(lam) <= {1},
    NamedSeries.S: lambda lam: True,
    NamedSeries.SHINV: lambda lam: all(part % 2 == 0 for part in lam.conjugate()),
    NamedSeries.SEINV: lambda lam: all(part % 2 == 0 for part in lam),
}


def test_table_in_schur_coordinates_matches_character_sums():
    # [s_nu](A (x) B) = sum over rho of T_A(rho) T_B(rho) chi^nu(rho) / z_rho,
    # with T_X(rho) the sum of chi^lam(rho) over the Schur support of X.  The
    # right side uses ``character`` only: no expansion, product or conversion.
    degree = 10
    traces = {}

    def trace(tag, rho):
        if (tag, rho) not in traces:
            traces[tag, rho] = sum(character(lam, rho) for lam in partitions_of(rho.weight)
                                   if SCHUR_SUPPORTS[tag](lam))
        return traces[tag, rho]

    for (a, b), rhs in TABLE.items():
        product = SymFunc.one("p", degree)
        for tag in rhs:
            product = product * named.expand(tag, degree)
        expected = {nu: sum((F(trace(a, rho) * trace(b, rho) * character(nu, rho), z(rho))
                             for rho in partitions_of(n)), F(0))
                    for n in range(degree + 1) for nu in partitions_of(n)}
        assert from_p(product, "s") == SymFunc("s", expected, degree), (a, b)


def test_first_difference_negative_control():
    # S (x) S against a deliberately wrong H: first mismatch in the weight-2
    # slice at (1,1) (the degree-0 and degree-1 coefficients agree)
    lhs = kronecker(named.expand("S", 4), named.expand("S", 4))
    wrong = named.expand("H", 4)
    disc = first_difference(lhs, wrong)
    assert disc == Discrepancy(Partition((1, 1)), F(2), F(1, 2))


def test_first_difference_none_on_equal():
    assert first_difference(named.expand("G", 5), named.expand("G", 5)) is None


def test_first_difference_rejects_mixed_bases_and_degrees():
    # s_2 and p_2 have the same terms dict but are different functions
    with pytest.raises(BasisError):
        first_difference(SymFunc.single("s", (2,), 2), SymFunc.single("p", (2,), 2))
    # above degree 2 the coefficients of the left side are unknown, not zero
    with pytest.raises(ValueError, match="degrees 2 and 4"):
        first_difference(named.expand("S", 2), named.expand("S", 4))


def first_difference_by_scan(lhs, rhs):
    """Reference: scan the union of both sides' keys in (weight, lex) order
    for the first coefficient that differs."""
    for key in sorted(set(lhs.terms) | set(rhs.terms), key=term_order):
        a, b = lhs.coefficient(key), rhs.coefficient(key)
        if a != b:
            return Discrepancy(key, a, b)
    return None


def test_first_difference_matches_a_scan_of_the_key_union():
    rng = random.Random(29)
    differing = 0
    for trial in range(1000):
        basis, degree = BASES[trial % len(BASES)], rng.randint(0, 6)
        lhs = random_symfunc(rng, basis, degree)
        terms = dict(lhs.terms)
        for key in list(terms):
            roll = rng.random()
            if roll < 0.1:
                del terms[key]  # a key of lhs only
            elif roll < 0.2:
                terms[key] += rng.choice((-1, F(1, 2)))
        for _ in range(rng.choice((0, 0, 1, 2))):  # keys of rhs only, unless lhs has them
            lam = rng.choice(partitions_of(rng.randint(0, degree)))
            terms.setdefault(lam, F(rng.randint(1, 9), rng.randint(1, 9)))
        rhs = SymFunc(basis, terms, degree)
        expected = first_difference_by_scan(lhs, rhs)
        assert first_difference(lhs, rhs) == expected, (lhs.terms, rhs.terms)
        differing += expected is not None
    assert 300 < differing < 1000


def test_intro_identity_small_degrees():
    r0 = verify_intro_identity(0)
    assert r0.passed() and r0.degree == 0
    r2 = verify_intro_identity(2)
    assert r2.passed()
    # both sides are 1 + p1 + 2 p1^2 at degree 2
    both = named.expand("Modd", 2) * named.expand("G", 2)
    assert both == SymFunc("p", {(): 1, (1,): 1, (1, 1): 2}, 2)


def test_intro_identity_degree_ten():
    assert verify_intro_identity(10).passed()


def test_support_claims_small_slices():
    se = from_p(named.expand("SEinv", 3), "s")
    assert se.terms == {(): F(1), (2,): F(1)}
    sh = from_p(named.expand("SHinv", 2), "s")
    assert sh.terms == {(): F(1), (1, 1): F(1)}


def test_support_claims_reports():
    assert verify_support_claims(0).passed()
    report = verify_support_claims(6)
    assert report.passed()
    assert report.identity == "support:SEinv,SHinv"


def test_shinv_direct_conversion_is_the_conjugate_even_support():
    # The direct p -> s route for SHinv, which the support report replaces
    # by the omega check; it stays here as SHinv's second route.
    for degree in range(13):
        sh = from_p(named.expand("SHinv", degree), "s")
        expected = {lam: 1 for n in range(degree + 1) for lam in partitions_of(n)
                    if all(part % 2 == 0 for part in lam.conjugate())}
        assert sh.terms == expected, degree
        assert all(type(c) is F and c == 1 for c in sh.terms.values())


def _mutated_expand(changes):
    """named.expand with p-coefficient deltas added to some tags' series."""
    real_expand = named.expand

    def expand(tag, degree):
        f = real_expand(tag, degree)
        delta = changes.get(NamedSeries.from_tag(tag))
        if delta is None:
            return f
        terms = dict(f.terms)
        for mu, c in delta.items():
            terms[mu] = terms.get(mu, 0) + c
        return SymFunc("p", terms, degree)

    return expand


def _count_from_p(monkeypatch):
    calls = []

    def counted(f, target):
        calls.append(target)
        return from_p(f, target)

    monkeypatch.setattr("symkron.verify.from_p", counted)
    return calls


def test_support_claims_convert_once(monkeypatch):
    calls = _count_from_p(monkeypatch)
    assert verify_support_claims(10).passed()
    assert calls == ["s"]


def test_support_claims_fail_on_a_mutated_shinv_coefficient(monkeypatch):
    mu = Partition((3, 2, 1))
    monkeypatch.setattr("symkron.verify.named.expand",
                        _mutated_expand({NamedSeries.SHINV: {mu: 1}}))
    calls = _count_from_p(monkeypatch)
    report = verify_support_claims(8)
    assert not report.passed()
    # Caught by the omega check in p, before any conversion.
    assert report.first_discrepancy.partition == mu
    assert report.first_discrepancy.rhs == report.first_discrepancy.lhs + 1
    assert calls == []


def test_support_claims_fail_at_p_to_s_when_omega_still_holds(monkeypatch):
    # The same change to SEinv and its omega image to SHinv keeps
    # SHinv = omega(SEinv), so only the conversion can catch it.
    mu = Partition((3, 2, 1))
    change = {mu: F(1)}
    monkeypatch.setattr("symkron.verify.named.expand", _mutated_expand(
        {NamedSeries.SEINV: change, NamedSeries.SHINV: _omega(int_terms(change))}))
    calls = _count_from_p(monkeypatch)
    report = verify_support_claims(8)
    assert not report.passed()
    assert calls == ["s"]
    disc = report.first_discrepancy
    assert disc.partition.weight == mu.weight
    # p_mu = sum over lam of chi^lam(mu) s_lam
    assert disc.lhs - disc.rhs == character(disc.partition, mu)


def _mutated_exponents(monkeypatch, changes):
    """Replace named.exponent by one with p-coefficient deltas added to some
    tags' exponents, and named.expand by exp of those exponents; the
    memoized expansions are left alone."""
    real_exponent = named.exponent

    def exponent(tag, degree):
        f = real_exponent(tag, degree)
        delta = changes.get(NamedSeries.from_tag(tag))
        if delta is None:
            return f
        terms = dict(f.terms)
        for mu, c in delta.items():
            if mu.weight <= degree:
                terms[mu] = terms.get(mu, 0) + c
        return SymFunc("p", terms, degree)

    monkeypatch.setattr("symkron.verify.named.exponent", exponent)
    monkeypatch.setattr("symkron.verify.named.expand",
                        lambda tag, degree: exp_series(exponent(tag, degree)))


def test_support_claims_fail_above_the_cross_check_in_s(monkeypatch):
    # SEinv's exponent changed at p_14 and SHinv's by omega to match, so
    # SHinv = omega(SEinv) still holds and the change lies above the
    # cross-check's degree: only exp_in_s at the full degree can catch it.
    mu = Partition((14,))
    change = {mu: F(1, 14)}
    _mutated_exponents(monkeypatch, {NamedSeries.SEINV: change,
                                     NamedSeries.SHINV: _omega(int_terms(change))})
    calls = _count_from_p(monkeypatch)
    assert verify_support_claims(13).passed()
    report = verify_support_claims(16)
    assert not report.passed()
    assert calls == ["s", "s"]
    disc = report.first_discrepancy
    assert disc.partition.weight == mu.weight > CROSS_CHECK_DEGREE
    # the weight-14 slice of exp(f + p_14 / 14) - exp(f) is p_14 / 14 =
    # sum over lam of chi^lam(14) / 14 s_lam
    assert disc.lhs - disc.rhs == F(character(disc.partition, mu), 14)
    assert disc.rhs in (0, 1)


def test_support_claims_cross_check_converts_once_at_twelve(monkeypatch):
    seen = []

    def counted(f, target):
        seen.append((f.degree, target, max(f.weights())))
        return from_p(f, target)

    monkeypatch.setattr("symkron.verify.from_p", counted)
    assert CROSS_CHECK_DEGREE == 12
    assert verify_support_claims(16).passed()
    assert seen == [(12, "s", 12)]
    seen.clear()
    assert verify_support_claims(7).passed()
    assert seen == [(7, "s", 6)]


def test_factor_closed_forms():
    for n, order in ((1, 10), (2, 20), (3, 10), (4, 12)):
        report = verify_factor_closed_forms(n, order)
        assert report.passed(), report.first_discrepancy
    with pytest.raises(ValueError):
        verify_factor_closed_forms(2, 0)


@pytest.mark.parametrize("n", range(1, 7))
def test_factor_closed_forms_match_their_series(n):
    # The closed forms as series, the route the report no longer takes:
    # (1 - x^2)^(-1/2), times exp(x / (n (1 - x))) for odd n.
    order = 20
    binomials = [F(comb(j, j // 2), 2 ** j) if j % 2 == 0 else F(0)
                 for j in range(order + 1)]
    if n % 2 == 0:
        expected = binomials
    else:
        expected = poly_mul(poly_exp_by_horner([F(0)] + [F(1, n)] * order, order),
                            binomials, order)
    f = named.factor("S", n, order)
    g = kron_factor(f, f)
    assert [g.coefficient(k) for k in range(order + 1)] == expected


def _bump_kron_factor(monkeypatch, k):
    """Make the report see g_k + 1 in place of g_k: class value k grows
    by z(n^k) = n**k * k!."""
    def bumped(a, b):
        values = list(kron_factor(a, b).values)
        values[k] += a.n ** k * factorial(k)
        return UnivariateFactor(a.n, values)

    monkeypatch.setattr("symkron.verify.kron_factor", bumped)


@pytest.mark.parametrize("n", (2, 3))
def test_factor_certificate_fails_on_a_mutated_coefficient(monkeypatch, n):
    _bump_kron_factor(monkeypatch, 5)
    report = verify_factor_closed_forms(n, 10)
    assert not report.passed()
    # g_5 first enters the residual of x^4, as D(0) * 5 * g_5.
    disc = report.first_discrepancy
    assert disc.partition == (n,) * 4
    assert disc.lhs == 5 * (1 if n % 2 == 0 else n)
    assert disc.rhs == 0


def test_factor_certificate_fails_on_a_mutated_constant_term(monkeypatch):
    _bump_kron_factor(monkeypatch, 0)
    report = verify_factor_closed_forms(2, 10)
    assert not report.passed()
    assert report.first_discrepancy == Discrepancy(Partition(()), F(2), F(1))


def test_run_suite_all_pass():
    reports = run_suite(5)
    assert len(reports) == 15 + 1 + 1 + 4
    assert all(r.passed() for r in reports)
    assert suite_exit_status(reports) == 0
    identities = [r.identity for r in reports]
    assert identities[0] == "H⊗H=H"
    assert identities[15] == "intro:S⊗S=Modd·G"
    assert identities[16] == "support:SEinv,SHinv"
    assert identities[17:] == [f"factors:n={n}" for n in (1, 2, 3, 4)]


def test_table_reads_no_coefficient_of_the_expansions():
    # The table runs on the kernels' integer form: expansion, products,
    # Kronecker products and comparison all read numerators, so only the
    # exponents are built from Fractions.
    symkron.clear_caches()
    exponents = [named.exponent(tag, 16) for tag in named.TAGS]
    with fractions_built() as built:
        expansions = [exp_series(f) for f in exponents]
    assert built == []
    assert all(r.passed() for r in run_suite(16, "table"))
    info = named._expand_cached.cache_info()
    assert info.currsize == len(named.TAGS)
    assert [named.expand(tag, 16) for tag in named.TAGS] == expansions
    assert named._expand_cached.cache_info().hits == info.hits + len(named.TAGS)
    assert all(type(f.terms) is IntTerms for f in expansions)
    # with the expansions held, the table itself builds no Fraction
    with fractions_built() as built:
        assert all(r.passed() for r in run_suite(16, "table"))
    assert built == []


def test_passing_suite_exponents_and_int_form_input_build_no_fraction():
    # A cold passing suite, the ten exponents and the checking constructor
    # on an integer form stay on integers from start to end.
    symkron.clear_caches()
    with fractions_built() as built:
        assert all(r.passed() for r in run_suite(20))
    assert built == []
    with fractions_built() as built:
        exponents = [named.exponent(tag, 30) for tag in named.TAGS]
    assert built == [] and len(exponents) == len(named.TAGS)
    s16 = named.expand("S", 16)
    for basis in "hems":
        g = from_p(s16, basis)
        with fractions_built() as built:
            f = SymFunc(g.basis, g.terms, 16)
        assert built == [] and f == g


def test_run_suite_targets_partition_the_whole_suite():
    assert tuple(TARGETS) == ("table", "intro", "support", "factors")
    whole = [r.identity for r in run_suite(4)]
    parts = [r.identity for what in TARGETS for r in run_suite(4, what)]
    assert parts == whole
    assert [r.identity for r in run_suite(4, "intro")] == ["intro:S⊗S=Modd·G"]
    with pytest.raises(ValueError):
        run_suite(4, "tabel")


def test_run_suite_rejects_negative_degree():
    for what in ("table", "intro", "support", "factors", "all"):
        for bad in (-3, True, 2.5):
            with pytest.raises(ValueError, match="non-negative") as info:
                run_suite(bad, what)
            assert "--degree" not in str(info.value), what


def test_graded_slices_of_verified_entries():
    # a passing whole-series check implies the per-degree identities
    degree = 6
    lhs = kronecker(named.expand("E", degree), named.expand("SHinv", degree))
    rhs = named.expand("SEinv", degree)
    for n in range(degree + 1):
        assert lhs.graded_component(n) == rhs.graded_component(n)


def test_report_invariant_and_json():
    report = verify_table_entry("E", "E", 4)
    assert report.passed() and report.first_discrepancy is None
    data = report.to_json_dict()
    assert data["identity"] == "E⊗E=H"
    assert data["degree"] == 4
    assert data["status"] == "pass"
    assert data["first_discrepancy"] is None
    assert isinstance(data["millis"], int)
    json.dumps(data)  # serializable


def test_failed_report_carries_discrepancy():
    disc = first_difference(named.expand("S", 3), named.expand("H", 3))
    assert disc is not None
    data = Discrepancy(disc.partition, disc.lhs, disc.rhs).to_json_dict()
    assert data == {"partition": [1, 1], "lhs": "1", "rhs": "1/2"}


def test_reports_deterministic_modulo_millis():
    def strip(rs):
        out = []
        for r in rs:
            d = r.to_json_dict()
            d.pop("millis")
            out.append(d)
        return out

    assert strip(run_suite(4)) == strip(run_suite(4))


def test_suite_catches_a_series_off_by_a_constant_factor(monkeypatch):
    # H / 2 has H's numerators over twice H's denominator, so only the
    # denominators tell the two sides of H (x) E = E apart.
    real_expand = named.expand

    def halved(tag, degree):
        f = real_expand(tag, degree)
        if NamedSeries.from_tag(tag) is NamedSeries.H:
            return SymFunc._of("p", IntTerms(f.terms.nums, 2 * f.terms.den), degree)
        return f

    monkeypatch.setattr(named, "expand", halved)
    for identity, lhs, rhs in (("H⊗E=E", F(1, 2), 1), ("H⊗H=H", F(1, 4), F(1, 2))):
        report = next(r for r in run_suite(6, "table") if r.identity == identity)
        assert report.first_discrepancy == Discrepancy(Partition(()), lhs, rhs)


def test_suite_catches_injected_corruption(monkeypatch):
    """Flipping a sign inside E's exponent must make the suite fail.

    The E (x) E entry itself survives any sign flip (coefficients enter that
    identity quadratically), but E (x) S breaks at the first odd degree.
    """
    real_expand = named.expand

    def corrupted(tag, degree):
        tag = NamedSeries.from_tag(tag)
        if tag is NamedSeries.E:
            flipped = named.exponent(tag, degree).scale(-1)
            return exp_series(flipped)
        return real_expand(tag, degree)

    monkeypatch.setattr(named, "expand", corrupted)
    reports = run_suite(5)
    assert suite_exit_status(reports) == 1
    failed = {r.identity for r in reports if not r.passed()}
    assert "E⊗S=S" in failed


# The route matrix: each fault, injected alone, must fail exactly the
# routes that read the code it breaks.  The routes are the four verify
# targets and "coef", the default kronecker_coefficient held against the
# oracle.  A fault that failed a route it should not reach would mean two
# routes share code; one that failed fewer would mean a route checks
# nothing.

def _failing_targets(degree: int) -> set:
    """The verify targets that fail at the degree.  An ArithmeticError
    fails its target."""
    failing = set()
    for target in TARGETS:
        try:
            if suite_exit_status(run_suite(degree, target)):
                failing.add(target)
        except ArithmeticError:
            failing.add(target)
    return failing


def _failing_routes() -> set:
    """The routes that fail: each verify target at degree 8, and "coef" on
    every triple of weight 5.  An ArithmeticError fails its route."""
    failing = _failing_targets(8)
    try:
        if any(kronecker_coefficient(*t) != kronecker_coefficient(*t, oracle=True)
               for t in itertools.product(partitions_of(5), repeat=3)):
            failing.add("coef")
    except ArithmeticError:
        failing.add("coef")
    return failing


def _z_off_by_one(monkeypatch):
    z_memo = _kernels._z
    monkeypatch.setattr(_kernels, "_z", lambda k: z_memo(k) + (k == (2, 1)))


def _exp_slice_doubled(monkeypatch):
    exp_slices = _kernels._exp_slices

    def doubled(*args):
        den, g = exp_slices(*args)
        return den, [(rows, 2 * scale if k == 3 else scale) for k, (rows, scale) in enumerate(g)]
    monkeypatch.setattr(_kernels, "_exp_slices", doubled)


def _strip_sign_flipped(monkeypatch):
    add_strips = bases._add_strips

    def flipped(vec, t, acc):
        add_strips([(mask, -v) for mask, v in vec] if t == 2 else vec, t, acc)
    monkeypatch.setattr(bases, "_add_strips", flipped)


def _char_row_raised(monkeypatch):
    char_row = bases._char_row

    @functools.cache  # clear_caches calls cache_clear on it
    def raised(lam):
        row = char_row(lam)
        return (row[0] + 1,) + row[1:] if lam == (3, 2) else row
    monkeypatch.setattr(bases, "_char_row", raised)


def _table_entry_swapped(monkeypatch):
    monkeypatch.setitem(TABLE, (NamedSeries.S, NamedSeries.SHINV),
                        (NamedSeries.G, NamedSeries.MEVEN))


@pytest.mark.parametrize("fault, failing", [
    (lambda monkeypatch: None, set()),
    (_z_off_by_one, {"table"}),
    (_exp_slice_doubled, {"table", "intro"}),
    (_strip_sign_flipped, {"support", "coef"}),
    (_char_row_raised, {"coef"}),
    (_table_entry_swapped, {"table"}),
], ids=["none", "z", "exp_slice", "strip_sign", "char_row", "table_entry"])
def test_each_fault_fails_exactly_its_routes(monkeypatch, fault, failing):
    symkron.clear_caches()
    try:
        fault(monkeypatch)
        assert _failing_routes() == failing
    finally:
        monkeypatch.undo()
        symkron.clear_caches()


# The exponent mutants: one class value of one named exponent changed, for
# every tag, n and k <= degree // n: raised by n^(k-1) k! (1/n on the
# coefficient of p_n^k) and, where it is nonzero, negated.  Every mutant
# must fail the table, except S's x/n term negated at odd n: that mutant is
# S with p_n -> -p_n, which every report pairs with a partner that hides
# it.  Tier-1 scans degree 8 and CI degree 12.

#: Per degree: how many mutants fail each set of verify targets.
EXPONENT_ROUTE_MATRIX = {
    8: {("table",): 142, ("intro", "table"): 64, ("support", "table"): 56,
        ("factors", "intro", "table"): 18, (): 4},
    12: {("table",): 244, ("intro", "table"): 116, ("support", "table"): 94,
         ("factors", "intro", "table"): 27, (): 6},
}


def s_sign_twists(degree: int) -> set:
    """The mutants that pass the table: S's x/n term negated at odd n."""
    return {(NamedSeries.S, n, 1, -1) for n in range(1, degree + 1, 2)}


def _exponent_mutants(degree: int):
    """(tag, n, k, mutated class value) for every mutant at the degree."""
    for tag in NamedSeries:
        for n in range(1, degree + 1):
            values = named._factor_exponent(tag, n, degree // n)
            for k in range(1, degree // n + 1):
                yield tag, n, k, values[k] + n ** (k - 1) * factorial(k)
                if values[k]:
                    yield tag, n, k, -values[k]


def exponent_mutant_scan(degree: int) -> tuple[dict, set]:
    """Runs every verify target at the degree on each mutant, with
    ``named._factor_exponent`` patched and the memos cleared.  Returns how
    many mutants fail each set of targets, and the mutants that pass the
    table."""
    real = named._factor_exponent
    matrix = collections.Counter()
    survivors = set()
    try:
        for tag, n, k, value in list(_exponent_mutants(degree)):
            def mutated(t, m, order, tag=tag, n=n, k=k, value=value):
                values = real(t, m, order)
                if (t, m) == (tag, n) and k <= order:
                    values[k] = value
                return values
            named._factor_exponent = mutated
            symkron.clear_caches()
            failing = _failing_targets(degree)
            matrix[tuple(sorted(failing))] += 1
            if "table" not in failing:
                survivors.add((tag, n, k, value))
    finally:
        named._factor_exponent = real
        symkron.clear_caches()
    return dict(matrix), survivors


def test_every_exponent_mutant_fails_the_table_but_the_s_sign_twists():
    matrix, survivors = exponent_mutant_scan(8)
    assert survivors == s_sign_twists(8)
    assert matrix == EXPONENT_ROUTE_MATRIX[8]
