"""Frozen records, built without the standard dataclass machinery.

``@record`` gives a class what ``@dataclass(frozen=True)`` gives it: an
``__init__`` over the annotated fields in order, with their class-level
defaults, that calls ``__post_init__`` when the class defines one; the
dataclass repr; equality and hashing over the field values, within one
class only; and no assignment or deletion once built. Fields named in
the class's ``_unprinted`` tuple are left out of the repr, and
``_fields`` holds the field names. Records do not inherit fields.

The standard module loads inspect, ast and dis, and its decorator runs
one exec per generated method; on a command that never fits, that
costs more than the command's own work. Here each class takes one exec.
"""

def _values(self) -> tuple:
    return tuple([getattr(self, name) for name in self._fields])


def _repr(self) -> str:
    shown = [f"{name}={getattr(self, name)!r}"
             for name in self._fields if name not in self._unprinted]
    return f"{type(self).__qualname__}({', '.join(shown)})"


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _values(self) == _values(other)


def _hash(self) -> int:
    return hash(_values(self))


def _frozen(self, name, value=None):
    raise AttributeError(f"{type(self).__qualname__} is frozen: cannot set or delete {name!r}")


def record(cls):
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = tuple(cls.__dict__[name] for name in names if name in cls.__dict__)
    if any(name in cls.__dict__ for name in names[:len(names) - len(defaults)]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    body = "".join(f"    _set(self, {name!r}, {name})\n" for name in names)
    if hasattr(cls, "__post_init__"):
        body += "    self.__post_init__()\n"
    namespace = {"_set": object.__setattr__}
    exec(f"def __init__(self, {', '.join(names)}):\n{body}", namespace)
    init = namespace["__init__"]
    init.__defaults__ = defaults or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    cls._fields = names
    cls._unprinted = cls.__dict__.get("_unprinted", ())
    cls.__repr__, cls.__eq__, cls.__hash__ = _repr, _eq, _hash
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls
