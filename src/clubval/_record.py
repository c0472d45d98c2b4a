"""Frozen records, built without the standard dataclass machinery.

``@record`` gives a class what ``@dataclass(frozen=True)`` gives it: an
``__init__`` over the annotated fields in order, with their class-level
defaults, that calls ``__post_init__`` when the class defines one; the
dataclass repr; equality and hashing over the field values, within one
class only, or over the tuple its ``_compared`` method returns when the
class defines one; and no assignment or deletion once built. Fields
named in the class's
``_unprinted`` tuple are left out of the repr, and ``_fields`` holds the
field names. Records do not inherit fields.

The standard module loads inspect, ast and dis, and its decorator runs
one exec per generated method; on a command that never fits, that
costs more than the command's own work. Here each class takes one exec.
"""

import sys
from math import inf, isfinite

from .errors import DomainError


def _values(self) -> tuple:
    return tuple([getattr(self, name) for name in self._fields])


def _repr(self) -> str:
    shown = [f"{name}={getattr(self, name)!r}"
             for name in self._fields if name not in self._unprinted]
    return f"{type(self).__qualname__}({', '.join(shown)})"


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self._compared() == other._compared()


def _hash(self) -> int:
    return hash(self._compared())


def _frozen(self, name, value=None):
    raise AttributeError(f"{type(self).__qualname__} is frozen: cannot set or delete {name!r}")


def record(cls):
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = tuple(cls.__dict__[name] for name in names if name in cls.__dict__)
    if any(name in cls.__dict__ for name in names[:len(names) - len(defaults)]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    # One dict update stores every field: no record class has __slots__, and
    # no field name is a class-level descriptor that assignment would call.
    body = f"    self.__dict__.update({{{', '.join(f'{name!r}: {name}' for name in names)}}})\n"
    if hasattr(cls, "__post_init__"):
        body += "    self.__post_init__()\n"
    namespace = {}
    exec(f"def __init__(self, {', '.join(names)}):\n{body}", namespace)
    init = namespace["__init__"]
    init.__defaults__ = defaults or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    cls._fields = names
    cls._unprinted = cls.__dict__.get("_unprinted", ())
    cls._compared = cls.__dict__.get("_compared", _values)
    cls.__repr__, cls.__eq__, cls.__hash__ = _repr, _eq, _hash
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


# Judges of the fields records and entry points take in. Each builds its label,
# "owner: field" or the field alone, only to refuse: ClubRecord runs up to eight.
_LARGEST = sys.float_info.max


def refuse(owner, field, need: str, value, form="{label} must {need}, got {value}"):
    """Raise the DomainError for a refused value. An int past the float range is
    named, not printed: past 4300 digits it cannot be."""
    huge = isinstance(value, int) and not -_LARGEST <= value <= _LARGEST
    label = f"{owner}: {field}" if owner else field
    value = "an int past the float range" if huge else repr(value)
    raise DomainError(form.format(label=label, need=need, value=value))


def one_line(text, owner, field, name=None) -> None:
    """A string without a line break; a non-empty one too if name is given."""
    # A line break would split a row in md and text tables. A printable
    # string holds none, so only another one is split to look.
    if not isinstance(text, str) or not (
        text.isprintable() or "".join(text.splitlines()) == text
    ):
        refuse(owner, field, "be a one-line string", text)
    if name and not text:
        refuse(None, name, "be non-empty", text)


def count(value, owner, field, low, high=_LARGEST) -> None:
    """An int, not a bool, from low up to high, by default the largest float."""
    if not isinstance(value, int) or value.__class__ is bool:
        refuse(owner, field, "be an integer", value)
    if not low <= value <= high:
        refuse(owner, field, "not exceed the largest float" if abs(value) > _LARGEST
               else f"be >= {low}" if high == _LARGEST else f"lie in [{low}, {high}]", value)


def _finite(none_passes: bool):
    def finite(value, owner, field, low=-inf, strict=False, high=None) -> None:
        """A finite number, not a bool: above low if strict, else at least low, and
        at most high if given. A strict low is 0 when there is no high."""
        if value is None and none_passes:
            return
        numeric = value.__class__ is not bool
        try:
            if numeric and isfinite(value) and (low < value if strict else low <= value) and (
                    high is None or value <= high):
                return
        except (TypeError, ValueError, OverflowError):  # not a number, or an int too large
            numeric = isinstance(value, int)
        if high is None:
            need = ("be a finite number" if low == -inf else "be positive and finite"
                    if strict else f"be finite and >= {low}")
        elif strict:
            refuse(owner, field, None, value, f"need {low} < {{label}} <= {high}, got {{value}}")
        else:
            need = f"lie in [{low}, {high}]" if numeric else "be a number"
        refuse(owner, field, need, value)

    return finite


# finite_or_none also passes None, in finite's body: a wrapper's second call per
# optional amount shows in ClubRecord's cost. No string or count is optional.
finite, finite_or_none = _finite(False), _finite(True)
