"""mwb.record against dataclasses: every record of the package gets a
dataclasses twin built from the same annotations and options, and the two
must agree on repr, ==, hash, NotImplemented across classes and frozen
refusal, on instances taken from real runs."""

import dataclasses
import dis
import itertools
import sys

import pytest

from conftest import F_TEXT, ambient, ideal
from mwb import blowup, cli, engine, invariant, monomials, poly, polyhedra
from mwb.errors import MwbError
from mwb.record import MISSING, field, record

# Each record with its option: (class, frozen, methods its class body
# defines itself, which the record keeps).
RECORDS = [
    (poly.LogAmbient, True, {"__init__", "__repr__"}),
    (poly.Polynomial, True, {"__init__", "__repr__", "__hash__"}),
    (poly.PolyIdeal, True, {"__init__", "__repr__"}),
    (polyhedra.Facet, True, set()),
    (polyhedra.NewtonPolyhedron, True, set()),
    (polyhedra.Ray, True, set()),
    (polyhedra.Cone, True, set()),
    (polyhedra.NormalFan, True, set()),
    (monomials.MonomialIdeal, True, set()),
    (blowup.FractionalIdeal, True, set()),
    (blowup.CenterIdeal, True, set()),
    (blowup.Chart, True, set()),
    (blowup.MultiWeightedBlowup, True, set()),
    (invariant.Invariant, True, set()),
    (invariant.Contact, True, set()),
    (invariant.Center, True, set()),
    (engine.ResolutionNode, False, set()),
    (engine.ResolutionTree, False, set()),
    (cli.Report, False, set()),
]
GENERATED = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"}
CLASS_ONLY = {"__dict__", "__weakref__", "__record_fields__", "__module__", "__annotations__"}


def twin(cls, frozen, own):
    """The dataclass that the same declaration would have made."""
    specs = []
    for f in cls.__record_fields__:
        options = {"compare": f.compare}
        if f.default is not MISSING:
            options["default"] = f.default
        if f.default_factory is not MISSING:
            options["default_factory"] = f.default_factory
        specs.append((f.name, cls.__annotations__[f.name], dataclasses.field(**options)))
    names = {f.name for f in cls.__record_fields__}
    namespace = {
        k: v
        for k, v in vars(cls).items()
        if k not in names and k not in CLASS_ONLY and (k not in GENERATED or k in own)
    }
    return dataclasses.make_dataclass(cls.__name__, specs, namespace=namespace, frozen=frozen)


def copy_as(cls, x, names):
    """An instance of cls holding x's values of the named fields, no
    constructor run."""
    out = object.__new__(cls)
    for name in names:
        object.__setattr__(out, name, getattr(x, name))
    return out


def walk(x, seen, found):
    """Collect every record reachable from x, by class."""
    if id(x) in seen:
        return
    seen.add(id(x))
    if hasattr(type(x), "__record_fields__"):
        found.setdefault(type(x), []).append(x)
        children = [getattr(x, f.name) for f in type(x).__record_fields__]
    elif isinstance(x, dict):
        children = [*x.keys(), *x.values()]
    elif isinstance(x, (tuple, list, frozenset)):
        children = list(x)
    else:
        return
    for c in children:
        walk(c, seen, found)


@pytest.fixture(scope="module")
def samples():
    seen, found = set(), {}
    for amb in (ambient(ordinary="x,y,z"), ambient(ordinary="x", monomial="y,z")):
        walk(engine.resolve(ideal(amb, F_TEXT)), seen, found)
    amb = ambient(ordinary="x,y")
    walk(engine.principalize(ideal(amb, "x^2 + y^3, x*y")), seen, found)
    gens = monomials.monomial_ideal([(2, 0), (0, 3)], 2)
    walk(blowup.FractionalIdeal(gens, 2), seen, found)
    walk(blowup.FractionalIdeal(gens, 3), seen, found)
    walk(monomials.newton(gens), seen, found)
    walk(polyhedra.newton_polyhedron([(1, 0, 2), (0, 2, 0)], 3), seen, found)
    # the same polyhedron from one more generator: equal, as generators and
    # tags are compare=False
    walk(polyhedra.newton_polyhedron([(2, 0), (0, 3), (2, 3)], 2), seen, found)
    for argv in ("resolve --ordinary x,y --ideal x^2+y^3", "newton --ideal x*y"):
        args = cli.build_parser().parse_args(argv.split())
        walk(args.func(args), seen, found)
    return found


def test_the_table_lists_every_record():
    modules = (poly, polyhedra, monomials, blowup, invariant, engine, cli)
    declared = {
        v for m in modules for v in vars(m).values()
        if isinstance(v, type) and "__record_fields__" in vars(v) and v.__module__ == m.__name__
    }
    assert declared == {cls for cls, *_ in RECORDS}


@pytest.mark.parametrize("cls, frozen, own", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_a_record_behaves_as_its_dataclass_twin(samples, cls, frozen, own):
    twin_cls = twin(cls, frozen, own)
    names = [f.name for f in cls.__record_fields__]
    xs = samples[cls][:6]
    ts = [copy_as(twin_cls, x, names) for x in xs]
    assert len(xs) >= 2
    for x, t in zip(xs, ts):
        assert repr(x) == repr(t)
        # equal to a copy of itself, and never to the twin: another class
        assert x == copy_as(cls, x, names) and t == copy_as(twin_cls, x, names)
        assert x.__eq__(t) is NotImplemented and t.__eq__(x) is NotImplemented
        assert x != t
        if frozen:
            assert hash(x) == hash(t) == hash(copy_as(cls, x, names))
        else:
            for y in (x, t):
                with pytest.raises(TypeError, match="unhashable"):
                    hash(y)
        name = names[0]
        for y in (x, t):
            if frozen:
                with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                    setattr(y, name, None)
                with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                    delattr(y, name)
            else:
                y = copy_as(type(y), y, names)
                setattr(y, name, None)
                assert getattr(y, name) is None
    for (x, t), (y, u) in itertools.combinations(zip(xs, ts), 2):
        assert (x == y) == (t == u)
        assert (x != y) == (t != u)
    if "__init__" not in own:
        for x in xs:
            values = [getattr(x, name) for name in names]
            assert cls(*values) == x
            assert repr(twin_cls(*values)) == repr(x)


def opcodes(fn):
    """fn's instructions with the names of closure cells and globals left
    out: record and dataclasses name their helpers differently."""
    loads = ("LOAD_DEREF", "LOAD_CLOSURE", "LOAD_GLOBAL")
    return [(i.opname, None if i.opname in loads else i.argval) for i in dis.get_instructions(fn)]


@pytest.mark.parametrize("cls, frozen, own", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_generated_methods_have_the_dataclass_bytecode(cls, frozen, own):
    # so a record compares and hashes at a dataclass's cost; from 3.13
    # dataclasses compares field by field, record keeps tuples.  A frozen
    # record's __init__ is pinned below instead
    twin_cls = twin(cls, frozen, own)
    checked = {"__hash__"} | ({"__eq__"} if sys.version_info < (3, 13) else set())
    if not frozen:
        checked.add("__init__")
    for name in checked - own:
        if getattr(cls, name) is not None:
            assert opcodes(getattr(cls, name)) == opcodes(getattr(twin_cls, name)), name
    if frozen and "__init__" not in own:
        # dataclasses calls object.__setattr__ once per field; a frozen
        # record reads the instance dict once and stores each field in it,
        # keyed by the field's name, in field order
        code = list(dis.get_instructions(cls.__init__))
        assert not any(i.argval == "__setattr__" for i in code)
        assert [i.argval for i in code].count("__dict__") == 1
        stored = [a.argval for a, b in zip(code, code[1:]) if b.opname == "STORE_SUBSCR"]
        assert stored == [f.name for f in cls.__record_fields__]


def test_records_of_different_classes_never_compare_equal(samples):
    firsts = [samples[cls][0] for cls, *_ in RECORDS]
    for x, y in itertools.permutations(firsts, 2):
        assert x.__eq__(y) is NotImplemented
        assert x != y


def test_a_default_factory_runs_once_per_instance():
    amb = ambient(ordinary="x")
    nodes = [
        engine.ResolutionNode("1", "root", amb, ideal(amb, "x"), 0, ((0,),)) for _ in range(2)
    ]
    assert nodes[0].children == nodes[1].children == []
    assert nodes[0].children is not nodes[1].children
    assert nodes[0].invariant is None and nodes[0].changes == ()
    assert cli.Report().lines is not cli.Report().lines


def test_post_init_still_refuses():
    gens = monomials.monomial_ideal([(1,)], 1)
    with pytest.raises(MwbError, match="root 0 must be positive"):
        blowup.FractionalIdeal(gens, 0)


@record(frozen=True)
class Point:
    x: int
    y: int = field(compare=False)


@record
class Bag:
    name: str
    size: int = 0
    items: list = field(default_factory=list)

    def __post_init__(self):
        self.size = len(self.name)


def test_options_land_as_dataclasses_place_them():
    p = Point(1, 2)
    assert repr(p) == "Point(x=1, y=2)" and p == Point(1, 3) and hash(p) == hash((1,))
    assert vars(p) == {"x": 1, "y": 2} and "y" not in vars(Point)
    assert Point.__init__.__qualname__ == "Point.__init__"
    b = Bag("abc")
    assert (b.size, b.items, Bag.size) == (3, [], 0)
    assert repr(b) == "Bag(name='abc', size=3, items=[])"
    assert Bag.__hash__ is None and "items" not in vars(Bag)
