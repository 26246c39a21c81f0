"""Monomial kernel: exponent arithmetic, term orders, normal-form reduction.

Exponents are plain int tuples.  Coefficients are exact rationals in one
form: an int when integral, a Fraction only when the denominator exceeds
1.  Sums, differences and products of ints stay ints; a result with a
Fraction operand goes through exact, which turns an integral Fraction back
into an int.  No coefficient is ever divided with / between two ints,
which would make a float: a true division builds a Fraction first.  Orders:
block == 0 is graded reverse lexicographic; block == k > 0 eliminates the
first k variables (grevlex on that block first, then grevlex on the rest).

normal_form reduces largest term first, in the manner of Monagan and
Pearce's heap division: the terms still to reduce sit in a heapq keyed by
their order key negated, computed once when a term enters the heap, so
each step pops the leading term instead of scanning every pending term.
A term that cancels leaves its heap entry behind; entries whose exponent
is no longer pending are skipped when popped.
"""

import heapq
from fractions import Fraction
from operator import add, le

from .errors import BadOrder

COMPILED = False  # the benchmark's report header reads this as the kernel lane


def exact(q):
    """q, an int or a Fraction, as an int when its denominator is 1."""
    return q.numerator if q.denominator == 1 else q


def grevlex_key(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def order_key(e, block):
    if block == 0:
        return grevlex_key(e)
    if block < 0 or block > len(e):
        raise BadOrder(f"block size {block} out of range")
    return (grevlex_key(e[:block]), grevlex_key(e[block:]))


def _descending_key(e, block):
    # order_key(e, block) flattened with every entry negated, so that the
    # smallest key is the largest monomial; block is already checked
    if block == 0:
        return (-sum(e),) + e[::-1]
    head, tail = e[:block], e[block:]
    return (-sum(head),) + head[::-1] + (-sum(tail),) + tail[::-1]


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    return all(map(le, a, b))


def mono_div(a, b):
    # a / b, or None when b does not divide a
    out = []
    for x, y in zip(a, b):
        if y > x:
            return None
        out.append(x - y)
    return tuple(out)


def mono_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def normal_form(f, basis, block):
    """Full reduction of the term dict f by a list of (lm, terms) pairs.

    Basis elements are monic: terms[lm] == 1.  Returns the irreducible
    remainder as a new dict, its terms in decreasing order; f itself is not
    modified.
    """
    if not f:
        return {}
    if block < 0 or block > len(next(iter(f))):
        raise BadOrder(f"block size {block} out of range")
    work = dict(f)  # pending terms; every one has an entry in heap
    heap = [(_descending_key(e, block), e) for e in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        t = heapq.heappop(heap)[1]
        c = work.pop(t, None)
        if not c:
            continue  # stale entry, or a zero coefficient given in f
        hit = None
        for lm, terms in basis:
            q = mono_div(t, lm)
            if q is not None:
                hit = (q, terms)
                break
        if hit is None:
            out[t] = c
            continue
        q, terms = hit
        for e2, c2 in terms.items():
            m = mono_mul(q, e2)
            if m == t:
                continue  # cancels against the popped leading term
            old = work.get(m)
            nc = -c * c2 if old is None else old - c * c2
            if type(nc) is Fraction:
                nc = exact(nc)
            if nc:
                if old is None:
                    heapq.heappush(heap, (_descending_key(m, block), m))
                work[m] = nc
            else:
                del work[m]  # only a pending term can cancel
    return out
