"""Monomial kernel: exponent arithmetic, term orders, normal-form reduction.

Exponents are plain int tuples, coefficients arbitrary Fractions.  Orders:
block == 0 is graded reverse lexicographic; block == k > 0 eliminates the
first k variables (grevlex on that block first, then grevlex on the rest).
"""

from .errors import BadOrder

COMPILED = False  # the benchmark's report header reads this as the kernel lane


def grevlex_key(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def order_key(e, block):
    if block == 0:
        return grevlex_key(e)
    if block < 0 or block > len(e):
        raise BadOrder(f"block size {block} out of range")
    return (grevlex_key(e[:block]), grevlex_key(e[block:]))


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


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
    remainder as a new dict; f itself is not modified.
    """
    work = dict(f)
    out = {}
    while work:
        t = max(work, key=lambda e: order_key(e, block))
        c = work.pop(t)
        if not c:
            continue
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
            nc = work.get(m, 0) - c * c2
            if nc:
                work[m] = nc
            else:
                work.pop(m, None)
    return out
