"""The monomial kernel: exponent arithmetic, term orders, normal form."""

import random
from fractions import Fraction

import pytest
import sympy

from mwb import kernel
from mwb.errors import BadOrder
from oracles import scan_normal_form


def random_exp(rng, n):
    return tuple(rng.randrange(0, 5) for _ in range(n))


def test_monomial_ops_agree():
    # division, product, divisibility and lcm agree with one another
    rng = random.Random(5001)
    for _ in range(300):
        n = rng.randrange(1, 5)
        a, b = random_exp(rng, n), random_exp(rng, n)
        q = kernel.mono_div(a, b)
        assert (q is None) == (not kernel.mono_divides(b, a))
        if q is not None:
            assert kernel.mono_mul(q, b) == a
        lcm = kernel.mono_lcm(a, b)
        assert lcm == tuple(max(x, y) for x, y in zip(a, b))
        assert kernel.mono_divides(a, lcm) and kernel.mono_divides(b, lcm)


def test_order_keys_agree_as_orders():
    # each order is multiplicative, and a block order puts its block first
    rng = random.Random(5002)
    for block in (0, 1, 2):
        exps = [random_exp(rng, 4) for _ in range(60)]
        key = lambda e: kernel.order_key(e, block)  # noqa: E731
        for a, b, c in zip(exps, exps[1:], exps[2:]):
            if key(a) < key(b):
                assert key(kernel.mono_mul(a, c)) < key(kernel.mono_mul(b, c))
            elif key(b) < key(a):
                assert key(kernel.mono_mul(b, c)) < key(kernel.mono_mul(a, c))
        if block:
            inside = [e for e in exps if any(e[:block])]
            outside = [(0,) * block + e[block:] for e in exps]
            assert min(map(key, inside)) > max(map(key, outside))


def test_grevlex_key_known_order():
    # degree first, then reversed-last-variable tie break
    exps = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    ranked = sorted(exps, key=kernel.grevlex_key, reverse=True)
    assert ranked == exps


def test_block_order_eliminates_prefix():
    # x beats any power of y once the first variable is its own block
    kx = kernel.order_key((1, 0), 1)
    ky = kernel.order_key((0, 7), 1)
    assert kx > ky
    assert kernel.order_key((0, 7), 0) > kernel.order_key((1, 0), 0)


def test_bad_block_raises():
    f = {(1, 2): Fraction(1), (0, 1): Fraction(-2)}
    basis = [((0, 1), {(0, 1): Fraction(1)})]
    for block in (5, 3, -1):
        with pytest.raises(BadOrder):
            kernel.order_key((1, 2), block)
        with pytest.raises(BadOrder):
            kernel.normal_form(f, basis, block)
    # nothing to order, nothing to reject
    assert kernel.normal_form({}, basis, 5) == {}


def random_terms(rng, n, size):
    f = {}
    for _ in range(size):
        e = random_exp(rng, n)
        c = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        if c:
            f[e] = c
    return f


def to_sympy(terms, syms):
    return sympy.Add(*(
        sympy.Rational(c) * sympy.Mul(*(s**k for s, k in zip(syms, e)))
        for e, c in terms.items()
    ))


def test_normal_form_agrees():
    # the remainder is reduced, stable, and differs from f by an ideal member;
    # membership is decided by sympy, since mwb.groebner runs on this kernel
    rng = random.Random(5003)
    for _ in range(60):
        n = rng.randrange(1, 4)
        block = rng.randrange(0, n + 1)
        basis = []
        for _ in range(rng.randrange(1, 3)):
            terms = random_terms(rng, n, 3)
            if not terms:
                continue
            lm = max(terms, key=lambda e: kernel.order_key(e, block))
            terms = {e: c / terms[lm] for e, c in terms.items()}
            basis.append((lm, terms))
        f = random_terms(rng, n, 4)
        got = kernel.normal_form(f, basis, block)
        assert not any(
            kernel.mono_divides(lm, e) for e in got for lm, _ in basis
        )
        assert kernel.normal_form(got, basis, block) == got
        syms = sympy.symbols(f"x0:{n}")
        gens = [to_sympy(terms, syms) for _, terms in basis]
        gb = sympy.groebner(gens, *syms, order="grevlex", domain="QQ")
        assert gb.contains(to_sympy(f, syms) - to_sympy(got, syms))


def unit_terms(rng, n, size, top):
    # coefficients +-1 and small exponents, so that reduction steps cancel
    # terms and bring cancelled ones back
    f = {}
    for _ in range(size):
        f[tuple(rng.randrange(0, top) for _ in range(n))] = Fraction(rng.choice((1, -1)))
    return f


def random_basis(rng, n, block, size, unit):
    basis = []
    for _ in range(size):
        if unit:
            terms = unit_terms(rng, n, rng.randrange(2, 5), 3)
        else:
            terms = random_terms(rng, n, rng.randrange(1, 5))
        if terms:
            lm = max(terms, key=lambda e: kernel.order_key(e, block))
            basis.append((lm, {e: c / terms[lm] for e, c in terms.items()}))
    return basis


def test_heap_normal_form_matches_scan_oracle():
    # same remainder as the full-scan reduction, in the same term order, on
    # every block of n = 1..5 variables; some inputs carry zero coefficients
    rng = random.Random(5004)
    for n in range(1, 6):
        for block in range(n + 1):
            for i in range(16):
                unit = i % 2 == 0
                basis = random_basis(rng, n, block, rng.randrange(0, 4), unit)
                if unit:
                    f = unit_terms(rng, n, rng.randrange(1, 9), 4)
                else:
                    f = random_terms(rng, n, rng.randrange(0, 9))
                if f and rng.random() < 0.2:
                    f[random_exp(rng, n)] = Fraction(0)
                got = kernel.normal_form(f, basis, block)
                assert list(got.items()) == list(scan_normal_form(f, basis, block).items())
                if not basis:
                    assert got == {e: c for e, c in f.items() if c}
