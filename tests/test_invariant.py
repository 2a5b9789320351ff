"""Every producer of ``SymFunc`` values meets the invariant the validating
constructor establishes: ``terms`` is a reduced ``IntTerms`` (``Partition``
keys, nonzero int numerators, a positive denominator with gcd 1 across
them), with weights at most the degree."""

import math
import random
from fractions import Fraction

from conftest import random_symfunc
from symkron._kernels import IntTerms
from symkron.bases import exp_in_s, from_p, schur_by_gram_schmidt, to_p
from symkron.named import TAGS, expand, exponent
from symkron.partitions import Partition
from symkron.products import UnivariateFactor, kronecker, plethysm
from symkron.series import BASES, SymFunc
from symkron.verify import _parity_support


def assert_invariant(f: SymFunc, label: str) -> None:
    terms = f.terms
    assert type(terms) is IntTerms, (label, type(terms))
    assert type(terms.den) is int and terms.den > 0, (label, terms.den)
    for key, v in terms.nums.items():
        assert type(key) is Partition, (label, key)
        assert type(v) is int and v, (label, v)
        assert key.weight <= f.degree, (label, key, f.degree)
    assert math.gcd(terms.den, *terms.nums.values()) == 1, (label, terms)
    assert all(type(c) is Fraction for c in terms.values()), label
    assert SymFunc(f.basis, dict(terms), f.degree) == f, label


def trusted_results(rng: random.Random):
    """(operation, result) for every operation that builds through _of."""
    degree = rng.randint(0, 8)
    basis = rng.choice(BASES)
    f = random_symfunc(rng, basis, degree)
    g = random_symfunc(rng, basis, rng.randint(0, 8))
    yield "+", f + g
    yield "-", f - g
    yield "scale", f.scale(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    yield "neg", -f
    d = rng.randint(0, degree)
    yield "truncate", f.truncate(d)
    yield "graded_component", f.graded_component(d)
    fp = random_symfunc(rng, "p", degree)
    gp = random_symfunc(rng, "p", rng.randint(0, 8))
    yield "*", fp * gp
    yield "to_p", to_p(f)
    for target in "mehs":
        yield f"from_p {target}", from_p(fp, target)
    yield "kronecker", kronecker(f, random_symfunc(rng, rng.choice(BASES), rng.randint(0, 8)))
    yield "plethysm", plethysm(f, random_symfunc(rng, "p", degree, constant_free=True))
    yield "exp_in_s", exp_in_s(random_symfunc(rng, "p", degree, constant_free=True))
    yield "expand", expand(rng.choice(TAGS), degree)
    for lam, schur in schur_by_gram_schmidt(rng.randint(1, 5)).items():
        yield f"schur_by_gram_schmidt {lam}", schur


def test_trusted_results_meet_the_invariant():
    rng = random.Random(606)
    for _ in range(40):
        for operation, result in trusted_results(rng):
            assert_invariant(result, operation)


def test_validating_builders_establish_the_invariant():
    rng = random.Random(607)
    built = [
        SymFunc("p", {(2, 1): 3, (1,): Fraction(2, 4), (): 0}, 3),
        SymFunc.single("s", (2, 1), 3, Fraction(1, 2)),
        SymFunc.one("h", 4),
        SymFunc.zero("m", 2),
        exponent("S", 8),
        UnivariateFactor(2, (1, 2, 3)).to_symfunc(),
        _parity_support(8),
    ]
    built += [SymFunc.from_json(random_symfunc(rng, basis, 6).to_json()) for basis in BASES]
    for f in built:
        assert_invariant(f, repr(f))
