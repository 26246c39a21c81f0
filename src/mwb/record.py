"""Value records: the one class decorator behind every record of mwb.

Each mwb command is a fresh process, so the import of the package is part
of every command's time, and dataclasses made up about half of it.
Importing dataclasses pulls in inspect, ast, dis and tokenize (11-24 ms on
a 2-core x86 container with Python 3.11.7), and each decoration compiles
every generated method with an exec of its own (about 1 ms per class, 19
classes).  record writes the same methods from one exec per class (about
0.45 ms) and imports only sys.  On that machine, with bytecode cached,
`import mwb, mwb.cli` fell from 52 to 28 ms (medians of 16 alternating
probes), and from 117 to 86 ms with bytecode writes off.

The generated bodies have the bytecode dataclasses writes (before 3.13),
so constructing, comparing and hashing a record costs the same:
- __init__(self, <fields>) assigns each field, with object.__setattr__
  when frozen, and then calls self.__post_init__() if the class has one;
- __repr__ gives Name(field=value, ...) over the repr=True fields;
- __eq__ compares the tuples of the compare=True fields when
  other.__class__ is self.__class__, and returns NotImplemented otherwise;
- a frozen record hashes the tuple of its compare=True fields, and
  assigning or deleting any attribute raises AttributeError; a record that
  is not frozen is unhashable.
A method the class body defines itself (__init__, __repr__, __hash__) is
kept.

The options are only those the records use: record(frozen=, slots=) and
field(default=, default_factory=, compare=, repr=), plus a plain class
attribute as a field's default.  slots=True rebuilds the class with
__slots__ holding the field names, as dataclasses does.  Not supported:
inheritance between records, ordering methods, keyword-only fields,
ClassVar and InitVar annotations, a recursion guard in __repr__, and
pickling of frozen slotted records.
"""

import sys

MISSING = object()
_HAS_DEFAULT_FACTORY = object()


class Field:
    """One field of a record: its name and the options field() took."""

    def __init__(self, default=MISSING, default_factory=MISSING, compare=True, repr=True):
        self.name = None
        self.default = default
        self.default_factory = default_factory
        self.compare = compare
        self.repr = repr


def field(*, default=MISSING, default_factory=MISSING, compare=True, repr=True):
    """Options for one field, given as its class attribute."""
    return Field(default, default_factory, compare, repr)


def record(cls=None, /, *, frozen=False, slots=False):
    """Class decorator: @record, or @record(frozen=True, slots=True)."""
    if cls is None:
        return lambda cls: _build(cls, frozen, slots)
    return _build(cls, frozen, slots)


def _fields(cls) -> list:
    """The class's fields in annotation order; a Field class attribute is
    replaced by its default, or removed when it has none."""
    out = []
    for name in cls.__dict__.get("__annotations__", {}):
        given = cls.__dict__.get(name, MISSING)
        f = given if isinstance(given, Field) else Field(given)
        f.name = name
        if isinstance(given, Field):
            if f.default is MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, f.default)
        out.append(f)
    return out


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _tuple(owner: str, fields) -> str:
    return "(" + "".join(f"{owner}.{f.name}," for f in fields) + ")"


def _init_lines(fields, frozen: bool, has_post_init: bool, env: dict) -> list:
    """The lines of __init__, head first; each default and factory it reads
    is added to env under the name the lines use."""
    params, body = ["self"], []
    for f in fields:
        value = f.name
        dflt = f"__record_dflt_{f.name}__"
        if f.default_factory is not MISSING:
            env[dflt] = f.default_factory
            params.append(f"{f.name}=__record_HAS_DEFAULT_FACTORY__")
            value = f"{dflt}() if {f.name} is __record_HAS_DEFAULT_FACTORY__ else {f.name}"
        elif f.default is not MISSING:
            env[dflt] = f.default
            params.append(f"{f.name}={dflt}")
        else:
            params.append(f.name)
        if frozen:
            body.append(f"__record_object__.__setattr__(self,{f.name!r},{value})")
        else:
            body.append(f"self.{f.name}={value}")
    if has_post_init:
        body.append("self.__post_init__()")
    return [f"def __init__({','.join(params)}):", *(body or ["pass"])]


def _build(cls, frozen: bool, slots: bool):
    fields = _fields(cls)
    own = dict(cls.__dict__)
    if slots:
        for f in fields:
            own.pop(f.name, None)
        own.pop("__dict__", None)
        own.pop("__weakref__", None)
        own["__slots__"] = tuple(f.name for f in fields)
        qualname = cls.__qualname__
        cls = type(cls)(cls.__name__, cls.__bases__, own)
        cls.__qualname__ = qualname

    env = {"__record_object__": object, "__record_HAS_DEFAULT_FACTORY__": _HAS_DEFAULT_FACTORY}
    compared = [f for f in fields if f.compare]
    shown = ", ".join(f"{f.name}={{self.{f.name}!r}}" for f in fields if f.repr)
    methods = {
        "__init__": _init_lines(fields, frozen, "__post_init__" in own, env),
        "__repr__": [
            "def __repr__(self):",
            f'return self.__class__.__qualname__ + f"({shown})"',
        ],
        "__eq__": [
            "def __eq__(self, other):",
            "if other.__class__ is self.__class__:",
            f" return {_tuple('self', compared)}=={_tuple('other', compared)}",
            "return NotImplemented",
        ],
    }
    if frozen:
        methods["__hash__"] = ["def __hash__(self):", f"return hash({_tuple('self', compared)})"]
        cls.__setattr__ = _refuse_assignment
        cls.__delattr__ = _refuse_deletion
    elif "__hash__" not in own:
        cls.__hash__ = None
    made = [name for name in methods if name not in own]

    # one exec per class: a function whose parameters are the defaults and
    # factories, which the methods it defines read as closure cells
    src = [f"def __create_fn__({', '.join(env)}):"]
    for name in made:
        head, *body = methods[name]
        src += [f" {head}", *(f"  {line}" for line in body)]
    src.append(f" return ({''.join(f'{name},' for name in made)})")
    ns = {}
    exec("\n".join(src), sys.modules[cls.__module__].__dict__, ns)
    for name, fn in zip(made, ns["__create_fn__"](**env)):
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, fn)
    cls.__record_fields__ = tuple(fields)
    return cls
