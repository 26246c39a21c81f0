"""Seeded input sets for the benchmark workloads, each operation with its
output check.

A workload is a list of operations.  ``Op.run`` is the timed call into the
public API; ``Op.check`` inspects its result outside the timed region and
returns ``None`` when the output is right, or a one-line reason.  The seed
changes only the seeded part of an input set: ``blowup_fan`` and
``one_step`` are drawn from it, while ``resolve_corpus`` and ``cli_golden``
are fixed sets whose order the seed shuffles.

Every call into ``mwb`` goes through a module attribute at call time
(``mwb.engine.resolve``, not a name bound at import), so that the tracer's
rebinding of those attributes sees it.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import random
import shlex
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import mwb
import mwb.cli
from mwb.poly import MONOMIAL, ORDINARY, LogAmbient, PolyIdeal, Polynomial

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
ORACLES = ROOT / "tests" / "oracles.py"



@dataclass
class Op:
    key: str  # canonical text of the input; the input-set digest hashes it
    run: Callable[[], object]
    check: Callable[[object], str | None]


def digest(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.key.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _ambient(ordinary: str = "", monomial: str = "") -> LogAmbient:
    names = [(n, ORDINARY) for n in ordinary.split(",") if n]
    names += [(n, MONOMIAL) for n in monomial.split(",") if n]
    return LogAmbient(names)


def _ideal_key(mode: str, ideal: PolyIdeal) -> str:
    gens = [sorted(g.terms.items()) for g in ideal.generators]
    return f"{mode} {ideal.ambient.variables} {gens}"


def _load_oracles():
    spec = importlib.util.spec_from_file_location("mwb_bench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- resolve_corpus ---------------------------------------------------------

F_TEXT = "x^2 + y^2 z + z^3"

# The drop corpus of tests/conftest.py: (mode, ordinary, monomial, ideal).
# None marks where the seeded trinomials go.
CORPUS = [
    ("resolve", "", "x,y,z", F_TEXT),
    ("resolve", "x", "y,z", F_TEXT),
    ("resolve", "x,y", "z", F_TEXT),
    ("resolve", "x,y,z", "", F_TEXT),
    ("resolve", "x,y", "", "x^2 + y^3"),
    ("principalize", "x,y", "", "x^2 + y^3"),
    ("principalize", "x,y", "", "x, y"),
    ("principalize", "x,y", "", "x^2, x y"),
    ("resolve", "x,y", "", "x y"),
    ("resolve", "x,y,z", "", "x^2 + y^2, z - y^2"),
    ("resolve", "x,y,z", "", "x^2 - y^2 z"),
    ("resolve", "x,y,z", "", "x^2 + y^4 + z^4"),
    ("resolve", "x,y", "z", "x^2 + y^3 + z^2"),
    ("resolve", "x", "y,z", "x^3 + y z"),
    ("resolve", "x,y", "", "x^2 + 2 x y + y^2"),
    ("resolve", "x,y,z", "", "x^2 - 2 x y + y^2 + z^3"),
    None,
    ("resolve", "x,y", "", "x^2 + y^4"),
    ("resolve", "x,y,z", "", "x^2 + y^2 z^2"),
    ("principalize", "x,y", "", "x^2, y^2"),
    ("resolve", "x,y", "z", "x^2 + y^3 z"),
    ("resolve", "x,y", "", "x^2 y + x y^2"),
    ("principalize", "x,y,z", "", "x y, z^2"),
    ("resolve", "x,y", "", "x^2 + x y^2"),
]
SEEDED_TRINOMIALS = 4
# The trinomials are those of the test suite's corpus, whatever the
# benchmark seed: 27 distinct costs leave gaps of up to 2x between
# neighbouring ranks, so four redrawn trinomials would move the median by
# up to 2x and p90 by 3x from seed to seed.  The seed shuffles the order.
TRINOMIAL_SEED = 4101

# Root invariant and tree order pinned by tests/test_engine.py and
# tests/test_acceptance.py; None where only the order is pinned.
PINNED = {
    ("resolve", "", "x,y,z", F_TEXT): ("(inf)", 1),
    ("resolve", "x", "y,z", F_TEXT): ("(2, inf)", 1),
    ("resolve", "x,y", "z", F_TEXT): ("(2, inf)", 2),
    ("resolve", "x,y,z", "", F_TEXT): ("(2, 3, 3)", 1),
    ("principalize", "x,y", "", "x, y"): ("(1, 1)", 1),
    ("principalize", "x,y", "", "x^2, x y"): (None, 2),
    ("principalize", "x,y", "", "x^2 + y^3"): (None, 1),
}


def nondegenerate_trinomials(seed: int, count: int, max_entry: int = 4):
    """Seeded Newton non-degenerate trinomials on fully monomial ambients,
    drawn exactly as tests/conftest.py draws them for the drop corpus."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 3)
        amb = _ambient(monomial=",".join("xyz"[:n]))
        terms = {}
        for _ in range(3):
            e = tuple(rng.randint(0, max_entry) for _ in range(n))
            terms[e] = terms.get(e, 0) + rng.choice([-2, -1, 1, 2])
        terms = {e: c for e, c in terms.items() if c}
        if not terms or (0,) * n in terms:
            continue
        if any(all(e[i] for e in terms) for i in range(n)):
            continue
        f = Polynomial(amb, terms)
        if mwb.engine.newton_nondegenerate(f)[0]:
            out.append(f)
    return out


def corpus_cases() -> list[tuple[str, PolyIdeal, tuple | None]]:
    """(mode, ideal, pinned (invariant, order) or None), in corpus order."""
    cases = []
    for entry in CORPUS:
        if entry is None:
            for f in nondegenerate_trinomials(TRINOMIAL_SEED, SEEDED_TRINOMIALS):
                cases.append(("resolve", PolyIdeal(f.ambient, (f,)), None))
            continue
        mode, ordinary, monomial, text = entry
        ideal = mwb.cli.parse_ideal(text, _ambient(ordinary, monomial))
        cases.append((mode, ideal, PINNED.get(entry)))
    return cases


def _check_tree(tree, pinned) -> str | None:
    for leaf in tree.leaves():
        if leaf.status not in ("smooth", "principal") or not leaf.scope:
            return f"leaf {leaf.path} is not certified"
    if pinned is not None:
        inv, order = pinned
        if inv is not None and str(tree.root.invariant) != inv:
            return f"root invariant {tree.root.invariant}, pinned {inv}"
        if tree.order() != order:
            return f"order {tree.order()}, pinned {order}"
    return None


def resolve_corpus(seed: int) -> list[Op]:
    ops = [
        Op(
            _ideal_key(mode, ideal),
            lambda i=ideal, m=mode: mwb.engine.resolve(i, mode=m),
            lambda tree, p=pinned: _check_tree(tree, p),
        )
        for mode, ideal, pinned in corpus_cases()
    ]
    random.Random(seed).shuffle(ops)
    return ops


# -- blowup_fan -------------------------------------------------------------

FAN_OPS = 12
# Minimal generator counts cycle through this pattern.  The cost of a Newton
# polyhedron is set by its generator count (a 4-variable one enumerates
# C(C(k,2)+4, 3) cross products: about 14 ms at k=3, 47 ms at k=4 and 140 ms
# to 1.9 s at k=5..8 on a 2.1 GHz x86-64 core).  With twice as many k=3
# ideals the median falls inside the k=3 operations and p90 inside the k=4
# ones, never on the boundary between the two.
FAN_GENS = (3, 3, 4)
FAN_MAX_EXP = 6
FAN_SHAPE_SEED = 1


def _antichain(gens) -> bool:
    """Distinct and no generator divides another."""
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            if i != j and all(x <= y for x, y in zip(a, b)):
                return False
    return True


def fan_inputs(seed: int) -> list[dict]:
    """Exponents from FAN_SHAPE_SEED up to the order of the coordinates;
    that order, the flags, the root and the coefficients from the seed.

    The work of a Newton polyhedron does not depend on the order of the
    coordinates, so every seed gives the same work (to 1% in Python calls)
    however few ideals a pass holds, while the inputs differ."""
    shapes = random.Random(FAN_SHAPE_SEED)
    rng = random.Random(seed)
    out = []
    for i in range(FAN_OPS):
        k = FAN_GENS[i % len(FAN_GENS)]
        while True:
            gens = [
                tuple(shapes.randint(0, FAN_MAX_EXP) for _ in range(4)) for _ in range(k)
            ]
            if _antichain(gens):
                break
        # a binomial and a monomial whose three exponents form an
        # antichain, so the pair's term ideal always has three generators
        while True:
            exps = [tuple(shapes.randint(0, 3) for _ in range(4)) for _ in range(3)]
            if _antichain(exps):
                break
        perm = rng.sample(range(4), 4)
        gens = [tuple(g[j] for j in perm) for g in gens]
        exps = [tuple(e[j] for j in perm) for e in exps]
        ordinary = rng.randint(0, 4)
        pair = [
            {exps[0]: rng.choice([1, 2, 3]), exps[1]: rng.choice([-3, -2, -1])},
            {exps[2]: rng.choice([1, 2, 3])},
        ]
        out.append(
            {
                "gens": sorted(gens),
                "flags": [ORDINARY] * ordinary + [MONOMIAL] * (4 - ordinary),
                "root": rng.randint(1, 6),
                "pair": pair,
            }
        )
    return out


def _fan_run(amb, ideal, root, pair):
    b = mwb.blowup.build_blowup(ideal, amb)
    rb = mwb.blowup.rees_blowup(mwb.blowup.FractionalIdeal(ideal, root), amb)
    weak, mult = mwb.blowup.weak_transform(rb, pair)
    return b, rb, weak, mult


def _fan_check(result, oracle, gens, vertices, pair) -> str | None:
    b, rb, weak, mult = result
    for blowup in (b, rb):
        found = {cone.vertex for cone in blowup.fan.maximal_cones}
        if found != vertices:
            return f"vertices {sorted(found)} disagree with the hull oracle"
        for ray in blowup.fan.rays:
            if ray.level != oracle.support_min(ray.direction, gens):
                return f"facet level of {ray.direction} disagrees with support_min"
    e = [0] * rb.cox.n
    for var, k in mult.items():
        e[rb.cox.index(var)] += k
    exc = Polynomial(rb.cox, {tuple(e): 1})
    total = mwb.blowup.total_transform(rb, pair)
    for t, w in zip(total.generators, weak.generators):
        if t != w * exc:
            return "total transform is not the weak transform times the exceptional monomial"
    return None


def blowup_fan(seed: int) -> list[Op]:
    oracle = _load_oracles()
    ops = []
    for spec in fan_inputs(seed):
        amb = LogAmbient(list(zip("xyzw", spec["flags"])))
        ideal = mwb.monomials.monomial_ideal(spec["gens"], 4)
        pair = PolyIdeal(amb, [Polynomial(amb, t) for t in spec["pair"]])
        vertices = oracle.hull_vertices(spec["gens"])
        ops.append(
            Op(
                f"fan {spec['flags']} {spec['gens']} root {spec['root']}"
                f" {_ideal_key('weak', pair)}",
                lambda a=amb, i=ideal, r=spec["root"], p=pair: _fan_run(a, i, r, p),
                lambda res, g=spec["gens"], v=vertices, p=pair: _fan_check(
                    res, oracle, g, v, p
                ),
            )
        )
    return ops


# -- one_step ---------------------------------------------------------------

ONE_STEP_OPS = 18
# (variables, Newton vertices) cycles through this pattern, and the
# exponents of the three terms add up to ONE_STEP_DEGREE[variables].  A
# three-term polynomial in three variables whose three exponents are all
# vertices has 20 faces to saturate instead of 12 to 14 and costs about
# 2.5 times as much, and cost grows with degree; fixing both keeps the
# pass time steady across seeds, puts the median inside the two-vertex
# three-variable operations and p90 inside the three-vertex ones.
ONE_STEP_KINDS = ((2, None), (3, 2), (3, 2), (2, None), (3, 2), (3, 3))
ONE_STEP_DEGREE = {2: 10, 3: 15}
ONE_STEP_MAX_EXP = 5
ONE_STEP_SHAPE_SEED = 1


def _in_hull_of_pair(e, a, b) -> bool:
    """Is e in conv(a, b) + orthant, i.e. e >= t a + (1-t) b for some
    t in [0, 1]?  Exact: each coordinate bounds t from one side."""
    lo, hi = Fraction(0), Fraction(1)
    for ei, ai, bi in zip(e, a, b):
        # t (ai - bi) <= ei - bi
        d, r = ai - bi, ei - bi
        if d > 0:
            hi = min(hi, Fraction(r, d))
        elif d < 0:
            lo = max(lo, Fraction(r, d))
        elif r < 0:
            return False
    return lo <= hi


def newton_vertices(exps) -> int:
    """Vertices of the Newton polyhedron of three distinct exponents."""
    a, b, c = exps
    return sum(
        not _in_hull_of_pair(e, p, q) for e, p, q in ((a, b, c), (b, a, c), (c, a, b))
    )


def trinomials(seed: int) -> list[Polynomial]:
    """Exponents from ONE_STEP_SHAPE_SEED, coefficients from the seed.

    Counted in Python calls, freely drawn sets of 36 move the pass's work
    by 9% and p90 by 18% from seed to seed, and permuting the variables of
    fixed exponents moves them too (grevlex is not symmetric in the
    variables); drawing only the coefficients moves both by under 1%.  The trinomials have no
    constant term and no variable dividing every term; these, the degree
    and the vertex count are read off the input alone."""
    shapes = random.Random(ONE_STEP_SHAPE_SEED)
    rng = random.Random(seed)
    out = []
    for i in range(ONE_STEP_OPS):
        n, vertices = ONE_STEP_KINDS[i % len(ONE_STEP_KINDS)]
        amb = _ambient(monomial=",".join("xyz"[:n]))
        while True:
            exps = [tuple(shapes.randint(0, ONE_STEP_MAX_EXP) for _ in range(n)) for _ in range(3)]
            if len(set(exps)) < 3 or (0,) * n in exps:
                continue
            if any(all(e[j] for e in exps) for j in range(n)):
                continue
            if sum(map(sum, exps)) != ONE_STEP_DEGREE[n]:
                continue
            if vertices is not None and newton_vertices(exps) != vertices:
                continue
            break
        out.append(Polynomial(amb, {e: rng.choice([-2, -1, 1, 2]) for e in exps}))
    return out


def _one_step_check(report) -> str | None:
    if report["nondegenerate"] and report["resolved"] is not True:
        return "nondegenerate but not resolved in one step"
    return None


def one_step(seed: int) -> list[Op]:
    return [
        Op(
            _ideal_key("one-step", PolyIdeal(f.ambient, (f,))),
            lambda f=f: mwb.engine.one_step_check(f),
            _one_step_check,
        )
        for f in trinomials(seed)
    ]


# -- cli_golden -------------------------------------------------------------


def transcript_blocks(text: str) -> list[tuple[str, str]]:
    """(command line, expected stdout) per block of one transcript.

    A transcript is blocks ``$ mwb ...\n<stdout>`` joined by newlines, and
    no stdout line starts with ``$ ``."""
    if not text.startswith("$ "):
        raise ValueError("a transcript starts with a command")
    out = []
    for block in text[2:].split("\n$ "):
        command, _, stdout = block.partition("\n")
        out.append((command, stdout))
    return out


def golden_commands() -> list[tuple[str, str]]:
    out = []
    for path in sorted(GOLDEN.glob("*.txt")):
        out.extend(transcript_blocks(path.read_text()))
    return out


def _cli_run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = mwb.cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _cli_check(result, expected) -> str | None:
    code, stdout, stderr = result
    if code != 0 or stderr:
        return f"exit {code}: {stderr.strip()}"
    if stdout != expected:
        return "stdout differs from the golden transcript"
    return None


def cli_golden(seed: int) -> list[Op]:
    """The golden commands in an order shuffled by the seed."""
    ops = []
    for command, expected in golden_commands():
        words = shlex.split(command)
        if words[0] != "mwb":
            raise ValueError(f"not an mwb command: {command}")
        ops.append(
            Op(
                command,
                lambda argv=words[1:]: _cli_run(list(argv)),
                lambda res, exp=expected: _cli_check(res, exp),
            )
        )
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS = {
    "resolve_corpus": resolve_corpus,
    "blowup_fan": blowup_fan,
    "one_step": one_step,
    "cli_golden": cli_golden,
}


# -- frontier ---------------------------------------------------------------

# Scale-wall inputs of the roadmap, all on three ordinary variables.  They
# are probed once, untimed, so that lifting the wall does not read as a
# slowdown of a timed workload.
FRONTIER = [
    ("resolve", "x^3 + y^4 + z^5"),
    ("invariant", "x^3 + y^3 + z^3"),
    ("center", "x y z"),
    ("resolve", "x^2 + y^2 z^3"),
]


def _frontier_call(kind: str, ideal: PolyIdeal):
    origin = (Fraction(0),) * ideal.ambient.n
    if kind == "resolve":
        return mwb.engine.resolve(ideal)
    inv, center = mwb.invariant.invariant_at(ideal, origin)
    if kind == "center" and center is not None:
        return mwb.invariant.reduced_center(center, ideal.ambient)
    return inv


def frontier() -> list[tuple[str, str | None]]:
    """(input, error class or None when it went through) per frontier case."""
    out = []
    amb = _ambient("x,y,z")
    for kind, text in FRONTIER:
        try:
            _frontier_call(kind, mwb.cli.parse_ideal(text, amb))
        except Exception as e:  # every refusal is recorded, whatever its class
            out.append((f"{kind} {text}", type(e).__name__))
        else:
            out.append((f"{kind} {text}", None))
    return out
