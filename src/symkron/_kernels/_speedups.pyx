# cython: language_level=3
# cython: boundscheck=False, wraparound=False
"""Compiled sparse product: the twin of symkron._kernels._mul_terms_py.

``mul_terms`` gives exactly the reference's results.  Term maps are dicts
keyed by weakly decreasing integer tuples with Fraction values.  The
rational arithmetic runs on raw numerator/denominator integer pairs
(normalized with math.gcd on every accumulation, so intermediates stay in
lowest terms) and only builds Fraction objects for the output.
"""

from libc.stdlib cimport free, malloc

from fractions import Fraction
from math import gcd

cdef object _Fraction = Fraction
cdef object _gcd = gcd


cdef tuple _merge_desc(tuple a, tuple b):
    """Merge two weakly decreasing tuples into one."""
    cdef Py_ssize_t na = len(a), nb = len(b)
    if na == 0:
        return b
    if nb == 0:
        return a
    cdef list out = [None] * (na + nb)
    cdef Py_ssize_t i = 0, j = 0, k = 0
    cdef long x = a[0], y = b[0]
    while True:
        if x >= y:
            out[k] = a[i]
            k += 1
            i += 1
            if i == na:
                break
            x = a[i]
        else:
            out[k] = b[j]
            k += 1
            j += 1
            if j == nb:
                break
            y = b[j]
    while i < na:
        out[k] = a[i]
        k += 1
        i += 1
    while j < nb:
        out[k] = b[j]
        k += 1
        j += 1
    return tuple(out)


cdef long _weight(tuple key):
    cdef long s = 0
    cdef Py_ssize_t i
    for i in range(len(key)):
        s += <long>key[i]
    return s


def mul_terms(dict a, dict b, long limit):
    """Distributive product; keys merge by part, weights add, truncated."""
    cdef Py_ssize_t na = len(a), nb = len(b)
    if na == 0 or nb == 0:
        return {}
    # flatten b once: keys, numerators, denominators as object lists,
    # weights as a C array
    cdef list bkeys = [None] * nb, bnum = [None] * nb, bden = [None] * nb
    cdef long *bw = <long *> malloc(nb * sizeof(long))
    if bw == NULL:
        raise MemoryError()
    cdef dict acc = {}
    cdef dict out = {}
    cdef Py_ssize_t j = 0
    cdef long wa
    cdef object key, coef, an, ad, num, den, g
    cdef tuple merged
    cdef list entry
    try:
        for key, coef in b.items():
            bkeys[j] = key
            bnum[j] = coef.numerator
            bden[j] = coef.denominator
            bw[j] = _weight(<tuple>key)
            j += 1
        for key, coef in a.items():
            wa = _weight(<tuple>key)
            an = coef.numerator
            ad = coef.denominator
            for j in range(nb):
                if wa + bw[j] > limit:
                    continue
                merged = _merge_desc(<tuple>key, <tuple>bkeys[j])
                num = an * <object>bnum[j]
                den = ad * <object>bden[j]
                entry = <list> acc.get(merged)
                if entry is None:
                    acc[merged] = [num, den]
                else:
                    num = (<object>entry[0]) * den + num * (<object>entry[1])
                    den = (<object>entry[1]) * den
                    g = _gcd(num, den)
                    if g != 1:
                        num = num // g
                        den = den // g
                    entry[0] = num
                    entry[1] = den
    finally:
        free(bw)
    for key, entry in acc.items():
        num = entry[0]
        if num != 0:
            out[key] = _Fraction(num, <object>entry[1])
    return out
