"""Polynomials over Q on a logarithmic ambient space.

An ambient A^{n;r} is an ordered list of named variables, each flagged
ordinary, monomial, or exceptional.  The two non-ordinary flags carry the
same log structure (exceptional just remembers blow-up provenance); they
change which derivations exist: d/dx for ordinary x, the Euler operator
x*d/dx for log variables.

Chart-local rings appear as an ambient plus a set of formally inverted
variable names (the chart's irrelevant monomial); inversion never changes
arithmetic here, it only licenses unit-stripping and saturation upstream.

Coefficients are exact rationals: an int when integral, a Fraction only
when the denominator exceeds 1, so the common coefficients (+-1, +-2) and
the chart points (0 and 1) make no Fraction at all.  Every operation keeps
that form: a sum, difference or product with a Fraction operand is passed
through kernel.exact, and a true division of coefficients builds a
Fraction first, so no float can appear.  Exponent vectors are int tuples
aligned with the variable order.

LogAmbient, Polynomial and PolyIdeal are frozen records (see record), so
equality, hashing and immutability are declared, not written.  Each keeps
a validating __init__ of its own; Polynomial keeps its __hash__, since its
terms are a dict.  LogAmbient keeps its names tuple, its name -> position
index and a memo of the ambients drop derives from it as plain attributes
that its constructors set, outside the fields that equality and hashing
read; drop and with_inverted check only what they add to an ambient.

The public constructor Polynomial(ambient, terms) validates and copies its
input: every exponent passes polyhedra.exponent (an int tuple of the
ambient's length with no negative entry), every coefficient becomes an
exact rational in that form, and zero terms are dropped, after the
exponent check.
Polynomial._trusted(ambient, terms) takes a term dict as it is.  It
serves only results that the package built from validated operands
(sums, negations, products, powers, substitutions, renamings, unit
stripping, derivations, monic rescalings, Rabinowitsch lifts,
S-polynomials, normal forms, orbit restrictions, restrictions to a
coordinate hyperplane, blow-up pullbacks and the generators of a chart
child, a transform's terms over the chart's ambient, the expressions
that cli's parser reads from int and p/q literals and names), where those
properties hold by construction.

substitute works on raw term dicts: each image's powers are built once by
repeated squaring and every term of the source is expanded with one
dict-level product per variable, so no intermediate Polynomial is made.
substitute_one, the map that moves one variable and fixes the others (a
restriction to a value, a coordinate change x -> x + s), expands only that
variable's powers and carries every other exponent over as it is.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import kernel
from .errors import AmbientMismatch, IncompleteSubstitution, MwbError
from .monomials import MonomialIdeal, minimalize
from .polyhedra import Vec, exponent
from .record import record

ORDINARY = "ordinary"
MONOMIAL = "monomial"
EXCEPTIONAL = "exceptional"
_FLAGS = (ORDINARY, MONOMIAL, EXCEPTIONAL)

# Bit bound on the numerator and denominator of each power evaluate builds.
EVALUATE_BITS = 1 << 20
# Bound on the term products one multiplication of * or ** may form,
# len(a) * len(b), checked before that multiplication expands; a power
# checks each squaring step, of which there are at most 2 log2(k) + 1.
TERM_BUDGET = 1 << 16
# Bound on the bits of every numerator and denominator one multiplication of
# * or ** may form, checked before it expands with coefficient_bits, so each
# coefficient stays printable: str() refuses an int past 4300 digits, about
# 14,000 bits.
COEFF_BITS = 1 << 13


@record(frozen=True)
class LogAmbient:
    """Ordered named variables with log flags and chart inversions."""

    variables: tuple[tuple[str, str], ...]
    inverted: frozenset[str]

    def __init__(self, variables, inverted=()):
        variables = tuple([(str(n), str(f)) for n, f in variables])
        names = tuple([n for n, _ in variables])
        index = {n: i for i, n in enumerate(names)}
        if len(index) != len(names):
            raise MwbError(f"duplicate variable names in {list(names)}")
        for n, f in variables:
            if f not in _FLAGS:
                raise MwbError(f"unknown flag {f!r} for variable {n}")
        inverted = frozenset(map(str, inverted))
        if not inverted <= index.keys():
            raise MwbError(f"inverted variables {sorted(inverted)} not in ambient")
        self._set(variables, inverted, index, names)

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def r(self) -> int:
        return sum(1 for _, f in self.variables if f != ORDINARY)

    def names(self) -> tuple[str, ...]:
        return self._names

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise MwbError(f"no variable {name!r} in ambient") from None

    def flag(self, name: str) -> str:
        return self.variables[self.index(name)][1]

    def is_log(self, name: str) -> bool:
        return self.flag(name) != ORDINARY

    def drop(self, name: str) -> "LogAmbient":
        # built once per name; removing a variable keeps the names distinct,
        # the flags known and the inverted names in the ambient
        out = self._drops.get(name)
        if out is None:
            i = self.index(name)
            names = self._names[:i] + self._names[i + 1 :]
            out = self._drops[name] = object.__new__(LogAmbient)._set(
                self.variables[:i] + self.variables[i + 1 :],
                self.inverted - {name},
                {n: j for j, n in enumerate(names)},
                names,
            )
        return out

    def with_inverted(self, names) -> "LogAmbient":
        new = frozenset(map(str, names))  # only the new names need a check
        if not new <= self._index.keys():
            raise MwbError(f"inverted variables {sorted(self.inverted | new)} not in ambient")
        out = object.__new__(LogAmbient)
        return out._set(self.variables, self.inverted | new, self._index, self._names)

    def _set(self, variables, inverted, index, names) -> "LogAmbient":
        # the fields, the name index and names, and an empty memo for drop
        d = self.__dict__
        d["variables"], d["inverted"], d["_index"], d["_names"] = variables, inverted, index, names
        d["_drops"] = {}
        return self

    def describe(self) -> str:
        tags = ", ".join(
            f"{n} {f}" + ("*" if n in self.inverted else "")
            for n, f in self.variables
        )
        return f"A^{{{self.n};{self.r}}}({tags})"

    def __repr__(self):
        return f"LogAmbient({self.describe()})"


def _coeff(c) -> int | Fraction:
    """A coefficient in the package's form: an int when integral, else a
    Fraction; anything but an int or a Fraction is refused."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else Fraction(c)
    if isinstance(c, int):
        return int(c)
    raise MwbError(f"coefficient {c!r} is not rational")


def rational(x) -> int | Fraction:
    """A point coordinate in the coefficients' form, from anything Fraction
    reads: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    return kernel.exact(Fraction(x))


@record(frozen=True)
class Polynomial:
    """Term dict {exponent tuple: nonzero coefficient} over a LogAmbient;
    a coefficient is an int when integral, else a Fraction."""

    ambient: LogAmbient
    terms: dict[Vec, int | Fraction]

    def __init__(self, ambient: LogAmbient, terms):
        clean = {}
        n = ambient.n
        for e, c in dict(terms).items():
            e = exponent(e, n)
            c = _coeff(c)
            if c:
                clean[e] = c
        d = self.__dict__
        d["ambient"], d["terms"] = ambient, clean

    @classmethod
    def _trusted(cls, ambient: LogAmbient, terms: dict) -> "Polynomial":
        """Wrap a term dict without validating or copying it.

        Only for dicts built from validated operands: int exponent tuples
        of length ambient.n with no negative entry, nonzero coefficients,
        each an int when integral and a Fraction otherwise."""
        p = object.__new__(cls)
        d = p.__dict__
        d["ambient"], d["terms"] = ambient, terms
        return p

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ambient != other.ambient:
            raise AmbientMismatch(
                f"{self.ambient.describe()} vs {other.ambient.describe()}"
            )

    def __add__(self, other):
        self._check(other)
        t = dict(self.terms)
        _add_into(t, other.terms)
        return Polynomial._trusted(self.ambient, t)

    def __neg__(self):
        return Polynomial._trusted(
            self.ambient, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c0 = _coeff(other)
            if not c0:
                return Polynomial._trusted(self.ambient, {})
            return Polynomial._trusted(
                self.ambient, {e: kernel.exact(c * c0) for e, c in self.terms.items()}
            )
        self._check(other)
        return Polynomial._trusted(
            self.ambient, _mul_within_budget(self.terms, other.terms)
        )

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise MwbError("negative polynomial power")
        return Polynomial._trusted(
            self.ambient,
            _pow_terms(self.terms, k, (0,) * self.ambient.n, _mul_within_budget),
        )

    def __hash__(self):
        # the terms dict is unhashable, so hash its sorted items
        return hash((self.ambient, tuple(sorted(self.terms.items()))))

    # -- queries ------------------------------------------------------------

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        i = self.ambient.index(name)
        return max(e[i] for e in self.terms)

    def evaluate(self, point) -> int | Fraction:
        """Value at a rational point; a power x^k with |x| not 0 or 1 whose
        numerator or denominator would pass EVALUATE_BITS bits raises."""
        point = [_coeff(x) for x in point]
        if len(point) != self.ambient.n:
            raise MwbError("point arity does not match ambient")
        bits = [max(x.numerator.bit_length(), x.denominator.bit_length())
                if x not in (0, 1, -1) else 0 for x in point]
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, b, k in zip(point, bits, e):
                if k:
                    if k * b > EVALUATE_BITS:
                        raise MwbError(
                            f"a {b}-bit coordinate to the power {k} exceeds "
                            f"{EVALUATE_BITS} bits"
                        )
                    v *= x**k
            total += v
        return kernel.exact(total)

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({self})"


# -- constructors -----------------------------------------------------------


def constant(ambient: LogAmbient, c) -> Polynomial:
    return Polynomial(ambient, {(0,) * ambient.n: _coeff(c)})


def variable(ambient: LogAmbient, name: str) -> Polynomial:
    e = [0] * ambient.n
    e[ambient.index(name)] = 1
    return Polynomial(ambient, {tuple(e): 1})


# -- derivations ------------------------------------------------------------


def derivative(p: Polynomial, name: str) -> Polynomial:
    """Plain partial derivative d/dx, regardless of flag."""
    i = p.ambient.index(name)
    t = {
        e[:i] + (e[i] - 1,) + e[i + 1 :]: kernel.exact(c * e[i])
        for e, c in p.terms.items() if e[i]
    }
    return Polynomial._trusted(p.ambient, t)


def log_derivation(p: Polynomial, name: str) -> Polynomial:
    """The derivation attached to the variable: d/dx when ordinary,
    the Euler operator x*d/dx when monomial or exceptional."""
    if p.ambient.is_log(name):
        i = p.ambient.index(name)
        return Polynomial._trusted(
            p.ambient, {e: kernel.exact(c * e[i]) for e, c in p.terms.items() if e[i]}
        )
    return derivative(p, name)



# -- substitution and reindexing --------------------------------------------


def _add_into(acc: dict, terms: dict) -> None:
    """Add a term dict into acc in place, dropping terms that cancel."""
    for e, c in terms.items():
        nc = acc.get(e, 0) + c
        if type(nc) is Fraction:
            nc = kernel.exact(nc)
        if nc:
            acc[e] = nc
        else:
            acc.pop(e, None)


def _mul_terms(a: dict, b: dict) -> dict:
    """Product of two term dicts, zero terms dropped."""
    t: dict[Vec, int | Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            m = kernel.mono_mul(e1, e2)
            nc = t.get(m, 0) + c1 * c2
            if type(nc) is Fraction:
                nc = kernel.exact(nc)
            if nc:
                t[m] = nc
            else:
                t.pop(m, None)
    return t


def coefficient_bits(terms: dict) -> tuple[int, int]:
    """(n, d) such that, over the least common denominator D of the
    coefficients, each coefficient is m/D with |m| < 2**n, and D < 2**d."""
    if not terms:
        return 0, 0
    den = math.lcm(*(c.denominator for c in terms.values()))
    num = max(abs(c.numerator) * (den // c.denominator) for c in terms.values())
    return num.bit_length(), den.bit_length()


def _mul_within_budget(a: dict, b: dict) -> dict:
    """_mul_terms, refused by _check_product before it expands."""
    _check_product(len(a), coefficient_bits(a), len(b), coefficient_bits(b))
    return _mul_terms(a, b)


def _check_product(len_a: int, bits_a, len_b: int, bits_b) -> None:
    """Refuse the product of term dicts of these lengths and coefficient_bits
    when it would form more than TERM_BUDGET term products, or a coefficient
    past COEFF_BITS.  Over the denominator D_a * D_b each product coefficient
    has a numerator that sums at most min(len_a, len_b) products of
    numerators."""
    if len_a * len_b > TERM_BUDGET:
        raise MwbError(
            f"multiplying {len_a} terms by {len_b} terms forms "
            f"{len_a * len_b} term products, over the budget of {TERM_BUDGET}"
        )
    (na, da), (nb, db) = bits_a, bits_b
    bits = max(na + nb + min(len_a, len_b).bit_length(), da + db)
    if bits > COEFF_BITS:
        raise MwbError(
            f"multiplying coefficients of up to {max(na, da)} and {max(nb, db)} "
            f"bits may form {bits}-bit coefficients, over the budget of {COEFF_BITS}"
        )


def _pow_terms(terms: dict, k: int, one: Vec, mul=_mul_terms) -> dict:
    """k-th power of a term dict by repeated squaring, each product by mul;
    one is the zero exponent of its ambient."""
    out = {one: 1}
    while k:
        if k & 1:
            out = mul(out, terms)
        k >>= 1
        if k:
            terms = mul(terms, terms)
    return out


def substitute(p: Polynomial, images: dict, target: LogAmbient) -> Polynomial:
    """Ring map determined by variable images; every source variable needs
    one, and every image must live on the target ambient."""
    names = p.ambient.names()
    missing = [n for n in names if n not in images]
    if missing:
        raise IncompleteSubstitution(f"no image for {missing}")
    for n in names:
        if images[n].ambient != target:
            raise AmbientMismatch(
                f"image of {n} lives on {images[n].ambient.describe()}, "
                f"not on {target.describe()}"
            )
    one = (0,) * target.n
    powers: list[dict[int, dict]] = [{} for _ in names]  # per variable, by k
    out: dict[Vec, int | Fraction] = {}
    for e, c in p.terms.items():
        t = {one: c}
        for i, k in enumerate(e):
            if k:
                pk = powers[i].get(k)
                if pk is None:
                    pk = powers[i][k] = _pow_terms(images[names[i]].terms, k, one)
                t = _mul_terms(t, pk)
                if not t:
                    break
        _add_into(out, t)
    return Polynomial._trusted(target, out)


def substitute_one(p: Polynomial, name: str, image: Polynomial, drop: bool = False) -> Polynomial:
    """substitute with image for the named variable and every other variable
    sent to itself, into p's ambient, or into p.ambient.drop(name) when
    drop; the image must live on that target.  Each power of the image is
    built once, and every other exponent is carried over unchanged, so the
    terms come in substitute's order."""
    amb = p.ambient
    i = amb.index(name)
    target = amb.drop(name) if drop else amb
    if image.ambient != target:
        raise AmbientMismatch(
            f"image of {name} lives on {image.ambient.describe()}, "
            f"not on {target.describe()}"
        )
    one = (0,) * target.n
    kept = () if drop else (0,)
    powers: dict[int, dict] = {}
    out: dict[Vec, int | Fraction] = {}
    for e, c in p.terms.items():
        rest, k = {e[:i] + kept + e[i + 1 :]: c}, e[i]
        if k:
            pk = powers.get(k)
            if pk is None:
                pk = powers[k] = _pow_terms(image.terms, k, one)
            rest = _mul_terms(rest, pk)
        _add_into(out, rest)
    return Polynomial._trusted(target, out)


def rename(p: Polynomial, mapping: dict, target: LogAmbient) -> Polynomial:
    """Variable-for-variable relabeling into the target ambient; two
    variables sent to one are refused, as they would merge terms, and so is
    a mapping key that names no source variable, as a misspelt one would
    relabel nothing."""
    names = p.ambient.names()
    for n in mapping:
        if n not in names:
            raise MwbError(f"rename maps {n}, which names no source variable")
    perm = [target.index(mapping.get(n, n)) for n in names]
    if len(set(perm)) < len(perm):
        raise MwbError("rename sends two variables to one target variable")
    t = {}
    for e, c in p.terms.items():
        e2 = [0] * target.n
        for i, k in enumerate(e):
            e2[perm[i]] = k
        t[tuple(e2)] = c
    return Polynomial._trusted(target, t)


def restrict(p: Polynomial, name: str, value: Polynomial | None = None) -> Polynomial:
    """Substitute value (default 0) for the named variable and drop it.

    The value must live on the reduced ambient (free of the variable).  A
    zero value is read off the exponents: the terms free of the variable
    stay, in substitute's order, with its coordinate deleted."""
    sub = p.ambient.drop(name)
    if value is not None and value.ambient != sub:
        raise AmbientMismatch("restriction value must live on the reduced ambient")
    if value is None or value.is_zero():
        i = p.ambient.index(name)
        return Polynomial._trusted(
            sub, {e[:i] + e[i + 1 :]: c for e, c in p.terms.items() if not e[i]}
        )
    return substitute_one(p, name, value, drop=True)


def strip_inverted_units(p: Polynomial) -> tuple[Polynomial, Vec]:
    """Divide out the largest inverted-variable monomial dividing every term.

    On a chart the inverted variables are units, so this changes the
    polynomial only by a unit factor.  Returns (quotient, removed exponent)."""
    if p.is_zero():
        return p, (0,) * p.ambient.n
    idx = [p.ambient.index(v) for v in sorted(p.ambient.inverted)]
    rem = [0] * p.ambient.n
    for i in idx:
        rem[i] = min(e[i] for e in p.terms)
    if not any(rem):
        return p, tuple(rem)
    t = {
        tuple(x - r for x, r in zip(e, rem)): c for e, c in p.terms.items()
    }
    return Polynomial._trusted(p.ambient, t), tuple(rem)


# -- ideals -----------------------------------------------------------------


@record(frozen=True)
class PolyIdeal:
    """Finitely generated ideal; zero generators are dropped, order kept."""

    ambient: LogAmbient
    generators: tuple[Polynomial, ...]

    def __init__(self, ambient: LogAmbient, generators):
        gens = []
        for g in generators:
            if g.ambient != ambient:
                raise AmbientMismatch("generator over a different ambient")
            if not g.is_zero():
                gens.append(g)
        d = self.__dict__
        d["ambient"], d["generators"] = ambient, tuple(gens)

    def is_zero(self) -> bool:
        return not self.generators

    def __str__(self):
        if self.is_zero():
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.generators) + ")"

    def __repr__(self):
        return f"PolyIdeal{self}"


def monomial_saturation(ideal: PolyIdeal) -> MonomialIdeal:
    """Smallest monomial ideal containing the ideal: the ideal of all terms
    of any generating set (a monomial ideal contains a polynomial iff it
    contains each of its terms)."""
    exps = []
    for g in ideal.generators:
        exps.extend(g.terms)
    return MonomialIdeal(ideal.ambient.n, minimalize(exps))


# -- printing ---------------------------------------------------------------


def format_monomial(ambient: LogAmbient, e: Vec) -> str:
    parts = []
    for name, k in zip(ambient.names(), e):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts) if parts else "1"


def _format_coeff(c: Fraction) -> str:
    """str(c), or an error naming its bit length when str() refuses a
    numerator or denominator that long (past sys.get_int_max_str_digits)."""
    try:
        return str(c)
    except ValueError:
        bits = max(c.numerator.bit_length(), c.denominator.bit_length())
        raise MwbError(f"a {bits}-bit coefficient is too long to print") from None


def format_polynomial(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    pieces = []
    for e, c in sorted(p.terms.items(), key=lambda t: kernel.grevlex_key(t[0]), reverse=True):
        mono = format_monomial(p.ambient, e)
        if mono == "1":
            body = _format_coeff(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{_format_coeff(abs(c))}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)
