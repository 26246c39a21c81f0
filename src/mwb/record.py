"""Value records: the one class decorator behind every record of mwb.

Each mwb command is a fresh process, so the import of the package is part
of every command's time.  Importing dataclasses pulls in inspect, ast, dis
and tokenize (11-24 ms on a 2-core x86 container with Python 3.11.7), and
each decoration compiles its methods with an exec per method.  record
imports only sys and writes a class's methods from one exec (about 0.45
ms): `import mwb, mwb.cli` fell from 52 to 28 ms on that machine.

The generated methods:
- __init__(self, <fields>) assigns each field and then calls
  self.__post_init__() if the class has one.  A frozen record reads
  self.__dict__ once and stores each field in it, where dataclasses calls
  object.__setattr__ once per field: Facet((1, 2, 0, 1), 5) takes about
  290 ns instead of 450 ns.  The instance then holds a dict of its own,
  64 bytes more, that Python 3.11 reads about 17 ns slower per attribute
  than inline values;
- __repr__ gives Name(field=value, ...) over the fields;
- __eq__ compares the tuples of the compare=True fields when
  other.__class__ is self.__class__, and returns NotImplemented otherwise;
- a frozen record hashes the tuple of its compare=True fields, and
  assigning or deleting any attribute raises AttributeError; a record that
  is not frozen is unhashable.
Apart from a frozen record's __init__, the bodies have the bytecode
dataclasses writes (before 3.13), so they cost the same.  A method the
class body defines itself (__init__, __repr__, __hash__) is kept.

The options are only those the records use: record(frozen=) and
field(default_factory=, compare=), plus a plain class attribute as a
field's default.  Every field is shown by __repr__, and a record keeps
its instance __dict__: no record is built with __slots__.  Not supported:
inheritance between records, ordering methods, keyword-only fields,
ClassVar and InitVar annotations, and a recursion guard in __repr__.
"""

import sys

MISSING = object()
_HAS_DEFAULT_FACTORY = object()


class Field:
    """One field of a record: its name and the options field() took."""

    def __init__(self, default=MISSING, default_factory=MISSING, compare=True):
        self.name = None
        self.default = default
        self.default_factory = default_factory
        self.compare = compare


def field(*, default_factory=MISSING, compare=True):
    """Options for one field, given as its class attribute."""
    return Field(default_factory=default_factory, compare=compare)


def record(cls=None, /, *, frozen=False):
    """Class decorator: @record, or @record(frozen=True)."""
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)


def _fields(cls) -> list:
    """The class's fields in annotation order; a Field class attribute is
    removed, a plain one is the field's default."""
    out = []
    for name in cls.__dict__.get("__annotations__", {}):
        given = cls.__dict__.get(name, MISSING)
        f = given if isinstance(given, Field) else Field(given)
        f.name = name
        if isinstance(given, Field):
            delattr(cls, name)
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
    params, body = ["self"], ["__record_dict__=self.__dict__"] if frozen else []
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
        body.append(f"__record_dict__[{f.name!r}]={value}" if frozen else f"self.{f.name}={value}")
    if has_post_init:
        body.append("self.__post_init__()")
    return [f"def __init__({','.join(params)}):", *(body or ["pass"])]


def _build(cls, frozen: bool):
    fields = _fields(cls)
    own = cls.__dict__
    env = {"__record_HAS_DEFAULT_FACTORY__": _HAS_DEFAULT_FACTORY}
    compared = [f for f in fields if f.compare]
    shown = ", ".join(f"{f.name}={{self.{f.name}!r}}" for f in fields)
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
