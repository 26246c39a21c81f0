import math
import random

import pytest
from hypothesis import given, strategies as st

import oracles
from mwb import newton_polyhedron, normal_fan
from mwb.blowup import FractionalIdeal, build_blowup, rees_blowup
from mwb.errors import EmptyIdeal, ZeroVector
from mwb.monomials import monomial_ideal
from mwb.poly import MONOMIAL, ORDINARY, LogAmbient
from mwb.polyhedra import _bits, _rank, contains, dot, faces, facet_level, primitive

EXPONENT = st.integers(min_value=0, max_value=6)


def exponents(n, count):
    return st.lists(
        st.tuples(*([EXPONENT] * n)).filter(any), min_size=1, max_size=count
    )


def random_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 3)
        gens = []
        for _ in range(rng.randint(1, 6)):
            e = tuple(rng.randint(0, 6) for _ in range(n))
            if any(e):
                gens.append(e)
        if gens:
            yield n, gens


def random_matrices(seed, count):
    # mostly zero entries: pivot swaps and rank-deficient matrices are common
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        zero = rng.uniform(0.4, 0.9)
        yield [
            tuple(0 if rng.random() < zero else rng.randint(-7, 7) for _ in range(cols))
            for _ in range(rows)
        ]


def test_integer_elimination_matches_rational_oracle():
    leading_zero = deficient = 0
    for mat in random_matrices(1011, 3000):
        rank = _rank(mat)
        assert rank == oracles.rank(mat)
        leading_zero += bool(rank) and mat[0][0] == 0
        deficient += rank < min(len(mat), len(mat[0]))
    # the seed really does reach the branches the zeros are there for
    assert leading_zero > 1000 and deficient > 1000


def test_oracle_simplex_sanity():
    # the oracle itself gets spot-checked before anything trusts it
    assert oracles.in_hull((1, 1), [(2, 0), (0, 2)])
    assert oracles.in_hull((5, 0), [(2, 0), (0, 2)])
    assert not oracles.in_hull((1, 0), [(2, 0), (0, 2)])
    assert not oracles.in_hull((0, 0), [(1, 0), (0, 1)])
    assert oracles.in_hull((3, 2, 2), [(3, 2, 2)])
    assert not oracles.in_hull((2, 2, 1), [(3, 2, 2), (1, 0, 2)])


def test_oracle_matches_closed_forms():
    # cross-check the hand-rolled simplex against closed-form answers:
    # one generator is plain domination, two generators reduce to an
    # interval intersection in the mixing parameter
    from fractions import Fraction

    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 3)
        g = tuple(rng.randint(0, 5) for _ in range(n))
        p = tuple(rng.randint(0, 6) for _ in range(n))
        assert oracles.in_hull(p, [g]) == all(a >= b for a, b in zip(p, g))
    for _ in range(60):
        n = rng.randint(2, 3)
        g1 = tuple(rng.randint(0, 5) for _ in range(n))
        g2 = tuple(rng.randint(0, 5) for _ in range(n))
        p = tuple(rng.randint(0, 6) for _ in range(n))
        # p >= t*g1 + (1-t)*g2 for some t in [0, 1]
        lo, hi = Fraction(0), Fraction(1)
        for j in range(n):
            a = g1[j] - g2[j]
            b = Fraction(p[j] - g2[j])
            if a > 0:
                hi = min(hi, b / a)
            elif a < 0:
                lo = max(lo, b / a)
            elif b < 0:
                lo, hi = Fraction(1), Fraction(0)
        assert oracles.in_hull(p, [g1, g2]) == (lo <= hi)


def test_vertices_match_hull_oracle():
    for n, gens in random_cases(1001, 200):
        p = newton_polyhedron(gens, n)
        assert set(p.vertices) == oracles.hull_vertices(gens)


def test_four_variable_hull_matches_oracle():
    # random_cases stops at 3 variables; four give the double description
    # five-dimensional rays and tight sets of three or more rows
    rng = random.Random(1008)
    for _ in range(40):
        gens = [
            tuple(rng.randint(0, 5) for _ in range(4))
            for _ in range(rng.randint(2, 5))
        ]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        p = newton_polyhedron(gens, 4)
        assert set(p.vertices) == oracles.hull_vertices(gens)
        for facet in p.facets:
            u = facet.normal
            assert facet.level == oracles.support_min(u, gens)
            # a facet, not a smaller face: tight vertices and free directions
            # span a hyperplane
            on = [v for v in p.vertices if dot(u, v) == facet.level]
            span = [tuple(a - b for a, b in zip(v, on[0])) for v in on[1:]]
            span += [tuple(int(j == i) for j in range(4)) for i in range(4) if not u[i]]
            assert oracles.rank(span) == 3
        u = tuple(rng.randint(0, 4) for _ in range(4))
        if any(u):
            assert facet_level(p, u) == oracles.support_min(u, gens)
        probe = tuple(rng.randint(0, 6) for _ in range(4))
        assert contains(p, probe) == oracles.in_hull(probe, gens)


def agreement_cases(seed):
    # n = 1, one generator, the origin and repeated generators, then random
    # sets in 2 to 5 variables up to 8 generators (6 in five variables)
    yield 1, [(3,), (1,), (4,)]
    yield 3, [(2, 1, 0)]
    yield 3, [(0, 0, 0), (1, 2, 0)]
    yield 3, [(1, 0, 2), (0, 3, 0), (1, 0, 2), (0, 3, 0)]
    rng = random.Random(seed)
    for n, count, top in [(2, 30, 8), (3, 30, 8), (4, 10, 8), (5, 5, 6)]:
        for k in range(count):
            size = top if k == 0 else rng.randint(1, top)
            yield n, [tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(size)]


def test_double_description_matches_subset_oracle():
    compared = 0
    for n, gens in agreement_cases(1012):
        p = newton_polyhedron(gens, n)
        assert p == oracles.subset_newton_polyhedron(gens, n), gens
        if len(p.facets) <= 12:
            face_list = faces(p)
            assert face_list == oracles.subset_faces(p), gens
            # the generators on each face, read off the tags, are those
            # tight on every defining facet
            for defining, _, _, _ in face_list:
                facets = [p.facets[j] for j in _bits(defining)]
                assert [g for g, t in zip(p.generators, p.tags) if t & defining == defining] == [
                    g for g in p.generators if all(dot(f.normal, g) == f.level for f in facets)
                ], gens
            compared += 1
    assert compared > 50


def coplanar_cases(seed):
    # every generator on the hyperplane sum(e) = d, some of them repeated.
    # Affinely dependent generators let two rays share n - 1 tight rows
    # without being adjacent; on the first four sets (found by search) a
    # double description without the third-ray test adds a ray that is
    # not extreme, and the random ones cover the cases where it does not
    yield 4, [(0, 1, 1, 0), (1, 0, 0, 1), (0, 2, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1), (0, 0, 2, 0)]
    yield 5, [(2, 0, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 0, 1, 1), (1, 0, 1, 0, 0), (0, 1, 0, 0, 1)]
    yield 5, [(1, 0, 1, 0, 0), (0, 0, 0, 1, 1), (0, 0, 1, 0, 1), (0, 1, 0, 0, 1), (1, 0, 0, 1, 0)]
    yield 5, [(0, 0, 1, 2, 0), (1, 0, 1, 0, 1), (0, 0, 1, 0, 2), (0, 1, 0, 2, 0), (0, 0, 1, 2, 0)]
    rng = random.Random(seed)
    for n, top in [(3, 7), (4, 6), (5, 5)]:
        for _ in range(15):
            d = rng.randint(2, 5)
            gens = []
            for _ in range(rng.randint(3, top)):
                e = [0] * n
                for _ in range(d):
                    e[rng.randrange(n)] += 1
                gens.append(tuple(e))
            yield n, gens + rng.sample(gens, 2)


def test_double_description_on_coplanar_generators():
    compared = 0
    for n, gens in coplanar_cases(2201):
        p = newton_polyhedron(gens, n)
        want = oracles.subset_newton_polyhedron(gens, n)
        assert p == want, gens
        assert (p.generators, p.tags) == (want.generators, want.tags), gens
        compared += len(p.facets) > n + 1
    assert compared > 30


def fan_shaped_cases(seed, count):
    # four variables, an antichain of three or four generators with entries
    # up to 6, as the blowup_fan workload draws them
    rng = random.Random(seed)
    while count:
        gens = [tuple(rng.randint(0, 6) for _ in range(4)) for _ in range(rng.choice((3, 4)))]
        if all(
            i == j or not all(x <= y for x, y in zip(a, b))
            for i, a in enumerate(gens)
            for j, b in enumerate(gens)
        ):
            count -= 1
            yield 4, gens


def test_lattice_dimensions_match_the_rank_of_each_span(monkeypatch):
    # faces reads dimensions off the face lattice with no rank call; the
    # rank of the vertex differences and free directions is the definition.
    # The agreement cases past 12 facets are too big for subset_faces, so
    # each face is also checked against its dot-product description
    def no_rank(rows):
        raise AssertionError("faces computed a rank")

    big = [
        (n, gens)
        for n, gens in agreement_cases(1012)
        if n >= 4 and len(newton_polyhedron(gens, n).facets) > 12
    ]
    assert len(big) >= 5
    checked = 0
    for n, gens in [*big, *fan_shaped_cases(1502, 40)]:
        p = newton_polyhedron(gens, n)
        monkeypatch.setattr("mwb.polyhedra._rank", no_rank)
        face_list = faces(p)
        monkeypatch.undo()
        assert len({row[0] for row in face_list}) == len(face_list)
        for face in face_list:
            defining, on, free, dim = face
            on = tuple(p.vertices[k] for k in _bits(on))
            free = tuple(_bits(free))
            span = [tuple(a - b for a, b in zip(v, on[0])) for v in on[1:]]
            span += [tuple(int(j == i) for j in range(n)) for i in free]
            assert dim == (oracles.rank(span) if span else 0), (gens, face)
            facets = [p.facets[j] for j in _bits(defining)]
            assert on == tuple(
                v for v in p.vertices if all(dot(f.normal, v) == f.level for f in facets)
            )
            assert free == tuple(
                i for i in range(n) if all(f.normal[i] == 0 for f in facets)
            )
            assert tuple(_bits(defining)) == tuple(
                j
                for j, f in enumerate(p.facets)
                if all(dot(f.normal, v) == f.level for v in on)
                and all(f.normal[i] == 0 for i in free)
            )
            assert [g for g, t in zip(p.generators, p.tags) if t & defining == defining] == [
                g for g in p.generators if all(dot(f.normal, g) == f.level for f in facets)
            ], (gens, face)
            checked += 1
    assert checked > 1000


def test_fans_and_charts_match_the_dot_product_incidence():
    # the cones, every chart's inverted variables and every generator's
    # kept tag come from the double description tags; the definition is by
    # dot products at each vertex and generator
    rng = random.Random(1501)
    for n, gens in [*agreement_cases(1012), *fan_shaped_cases(1502, 40)]:
        p = newton_polyhedron(gens, n)
        assert set(p.vertices) == oracles.hull_vertices(gens), gens
        assert p.generators == tuple(sorted(set(map(tuple, gens)), reverse=True))
        for g, t in zip(p.generators, p.tags):
            assert set(_bits(t)) == {
                j for j, f in enumerate(p.facets) if dot(f.normal, g) == f.level
            }
        tight = {
            v: tuple(j for j, f in enumerate(p.facets) if dot(f.normal, v) == f.level)
            for v in p.vertices
        }
        assert [(c.vertex, c.rays) for c in normal_fan(p).maximal_cones] == sorted(
            tight.items(), reverse=True
        ), gens
        ordinary = rng.randint(0, n)
        amb = LogAmbient(
            [(f"x{i}", ORDINARY if i < ordinary else MONOMIAL) for i in range(n)]
        )
        ideal = monomial_ideal(gens, n)
        root = rng.randint(1, 6)
        for b in (build_blowup(ideal, amb), rees_blowup(FractionalIdeal(ideal, root), amb)):
            assert [c.vertex for c in b.charts] == sorted(tight, reverse=True)
            for chart in b.charts:
                want = tuple(
                    v
                    for v, r in zip(b.ray_vars, b.fan.rays)
                    if dot(r.direction, chart.vertex) > r.level
                )
                assert chart.inverted == want, gens


def test_blowups_hold_only_tuple_rows():
    # the double description runs on int lists; none of them may reach a
    # frozen record, which would then neither hash nor stay fixed
    rng = random.Random(1503)
    for n, gens in [*agreement_cases(1012), *fan_shaped_cases(1502, 40)]:
        amb = LogAmbient([(f"x{i}", ORDINARY) for i in range(n)])
        ideal = monomial_ideal(gens, n)
        p = newton_polyhedron(gens, n)
        hash(p)
        assert all(type(f.normal) is tuple for f in p.facets), gens
        for b in (
            build_blowup(ideal, amb),
            rees_blowup(FractionalIdeal(ideal, rng.randint(1, 6)), amb),
        ):
            rows = [r.direction for r in b.fan.rays]
            rows += [c.rays for c in b.fan.maximal_cones]
            rows += [c.inverted for c in b.charts]
            rows += b.beta_rows
            assert all(type(row) is tuple for row in rows), gens
            assert type(b.beta_rows) is tuple
            hash(b.fan)
            hash(b)


def test_eight_generator_hull_in_four_variables():
    gens = [
        (6, 0, 0, 0),
        (0, 6, 0, 0),
        (0, 0, 6, 0),
        (0, 0, 0, 6),
        (2, 2, 1, 0),
        (1, 0, 2, 2),
        (0, 3, 0, 2),
        (3, 3, 3, 3),
    ]
    p = newton_polyhedron(gens, 4)
    assert set(p.vertices) == oracles.hull_vertices(gens)
    assert (3, 3, 3, 3) not in p.vertices
    assert len(p.facets) > 6
    for facet in p.facets:
        u = facet.normal
        assert facet.level == oracles.support_min(u, gens)
        on = [v for v in p.vertices if dot(u, v) == facet.level]
        span = [tuple(a - b for a, b in zip(v, on[0])) for v in on[1:]]
        span += [tuple(int(j == i) for j in range(4)) for i in range(4) if not u[i]]
        assert oracles.rank(span) == 3


def test_contains_matches_hull_oracle():
    rng = random.Random(1002)
    for n, gens in random_cases(1003, 60):
        p = newton_polyhedron(gens, n)
        for _ in range(5):
            probe = tuple(rng.randint(0, 8) for _ in range(n))
            assert contains(p, probe) == oracles.in_hull(probe, gens)


def test_facets_are_valid_and_tight():
    for n, gens in random_cases(1004, 80):
        p = newton_polyhedron(gens, n)
        for facet in p.facets:
            u = facet.normal
            assert all(c >= 0 for c in u) and any(u)
            assert math.gcd(*u) == 1
            values = [dot(u, g) for g in gens]
            assert min(values) == facet.level
            assert any(dot(u, v) == facet.level for v in p.vertices)


def test_facet_level_is_support_minimum():
    rng = random.Random(1005)
    for n, gens in random_cases(1006, 60):
        p = newton_polyhedron(gens, n)
        u = tuple(rng.randint(0, 5) for _ in range(n))
        if not any(u):
            u = (1,) * n
        assert facet_level(p, u) == oracles.support_min(u, gens)


def test_single_ray_example():
    p = newton_polyhedron([(2, 0, 0), (0, 3, 0), (0, 0, 3)], 3)
    assert set(p.vertices) == {(2, 0, 0), (0, 3, 0), (0, 0, 3)}
    got = {f.normal: f.level for f in p.facets}
    assert got == {
        (1, 0, 0): 0,
        (0, 1, 0): 0,
        (0, 0, 1): 0,
        (3, 2, 2): 6,
    }


def test_two_ray_example():
    p = newton_polyhedron([(2, 0, 0), (0, 2, 1), (0, 0, 3)], 3)
    got = {f.normal: f.level for f in p.facets}
    assert got == {
        (1, 0, 0): 0,
        (0, 1, 0): 0,
        (0, 0, 1): 0,
        (3, 2, 2): 6,
        (1, 0, 2): 2,
    }
    # exceptional rays are ordered largest first, after the coordinate ones
    tails = [f.normal for f in p.facets if f.level or sum(f.normal) > 1]
    assert tails == [(3, 2, 2), (1, 0, 2)]


def test_normal_fan_cones_match_vertices():
    for n, gens in random_cases(1007, 60):
        p = newton_polyhedron(gens, n)
        fan = normal_fan(p)
        assert len(fan.maximal_cones) == len(p.vertices)
        facet_at = {
            v: {f.normal for f in p.facets if dot(f.normal, v) == f.level}
            for v in p.vertices
        }
        for cone in fan.maximal_cones:
            assert cone.vertex in p.vertices
            assert {fan.rays[i].direction for i in cone.rays} == facet_at[cone.vertex]


def test_faces_cover_vertex_subsets():
    p = newton_polyhedron([(2, 0, 0), (0, 2, 1), (0, 0, 3)], 3)
    fs = faces(p)
    vertex_sets = {tuple(p.vertices[k] for k in _bits(on)) for _, on, _, _ in fs}
    # every vertex spans a zero-dimensional face; the whole polyhedron too
    for v in p.vertices:
        assert any(set(vs) == {v} for vs in vertex_sets)
    assert any(set(vs) == set(p.vertices) for vs in vertex_sets)
    for defining, on, _, _ in fs:
        for v in (p.vertices[k] for k in _bits(on)):
            assert all(dot(p.facets[k].normal, v) == p.facets[k].level for k in _bits(defining))


@given(exponents(2, 5))
def test_generators_always_contained(gens):
    p = newton_polyhedron(gens, 2)
    for g in gens:
        assert contains(p, g)
        assert contains(p, (g[0] + 1, g[1]))
        assert contains(p, (g[0], g[1] + 2))


@given(exponents(3, 4), st.tuples(EXPONENT, EXPONENT, EXPONENT))
def test_containment_is_facet_conjunction(gens, probe):
    p = newton_polyhedron(gens, 3)
    expected = all(dot(f.normal, probe) >= f.level for f in p.facets)
    assert contains(p, probe) == expected


def test_empty_and_zero_inputs():
    with pytest.raises(EmptyIdeal):
        newton_polyhedron([], 2)
    with pytest.raises(ZeroVector):
        primitive((0, 0, 0))
    assert primitive((4, 6, 2)) == (2, 3, 1)
    assert primitive((0, 5)) == (0, 1)
