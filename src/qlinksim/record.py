"""Immutable records: the one idiom for every parameter and result type.

A record class lists its fields as annotated class attributes, in order,
each with an optional default, and may define _validate(), which every
construction runs, replace() included.  Record compiles two methods per
class from one generated source: __init__, which sets each field, and
_values(), the tuple of field values that equality, hashing and repr
read.  Neither loops over field names.  Setting or deleting an attribute
raises AttributeError.  Two records are equal only if they are of the
same class and their fields are equal; a class declared with eq=False
keeps identity equality and hashing.

A value derived from the fields alone, such as a constant that a rate
kernel would otherwise recompute on every call, is a method of the record
class decorated with derived: computed on first read and kept in the
instance __dict__, which the setattr guard does not cover, so that every
later read is a plain attribute lookup.  Derived values sit outside
_values(), so they do not count in equality, hashing, repr or replace(),
and a replaced record computes its own afresh.

RateResult, the one record that both rate kernels (dvqkd.finite_key_rate
and cvqkd.composable_key_rate) return, lives here too, so that neither
kernel imports the other.

The module imports nothing, so a run pays for no record machinery
beyond one exec per record class.
"""

from __future__ import annotations

__all__ = ["RateResult", "Record", "derived"]

_set = object.__setattr__


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self._values() == other._values()
    return NotImplemented


def _hash(self):
    return hash(self._values())


class derived:
    """A record value computed from its fields on first read, then kept on the instance.

    functools.cached_property without its lock, which adds about 0.4 us
    to every first read under Python 3.11; a record is read by one thread.
    The value is stored as an instance attribute, which shadows this
    non-data descriptor; it is set as the fields are, by object.__setattr__,
    so that no per-instance __dict__ object is made (reading __dict__, as
    cached_property does, builds one for each record).  An exception
    stores nothing, so the next read raises again.
    """

    def __init__(self, func) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, record, owner: type | None = None):
        if record is None:
            return self
        value = self.func(record)
        _set(record, self.name, value)
        return value


class Record:
    """Base of the immutable records; see the module docstring."""

    _fields = ()

    def __init_subclass__(cls, eq: bool = True) -> None:
        names = tuple(cls.__dict__.get("__annotations__", {}))
        namespace = {"_set": _set}
        params = []
        for name in names:
            if name in cls.__dict__:
                namespace[f"_default_{name}"] = cls.__dict__[name]
                params.append(f"{name}=_default_{name}")
            else:
                params.append(name)
        lines = [f"def __init__(self, {', '.join(params)}):"]
        lines += [f"    _set(self, {name!r}, {name})" for name in names]
        if hasattr(cls, "_validate"):
            lines.append("    self._validate()")
        lines += ["def _values(self):", f"    return ({''.join(f'self.{n}, ' for n in names)})"]
        exec("\n".join(lines), namespace)
        for method in ("__init__", "_values"):
            function = namespace[method]
            function.__qualname__ = f"{cls.__qualname__}.{method}"
            setattr(cls, method, function)
        if eq:
            cls.__eq__ = _eq
            cls.__hash__ = _hash
        cls._fields = names

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes: object):
        """A copy with the given fields changed, validated as a new record."""
        return self.__class__(**{**dict(zip(self._fields, self._values())), **changes})


class RateResult(Record):
    """One protocol evaluation: a key rate and the classical throughput it carries.

    signed_rate is the key rate in bits per use before it is clamped at
    0; it is -inf where no finite margin exists.  throughput is the
    classical bits per use that the same signal carries, as each kernel
    defines it.  diagnostics is the kernel's record of intermediates,
    dvqkd.DvDiagnostics or cvqkd.CvDiagnostics.
    """

    signed_rate: float
    throughput: float
    diagnostics: object

    def _validate(self) -> None:
        # NaN is the one float unequal to itself
        if self.signed_rate != self.signed_rate:
            raise ValueError(f"signed rate must not be NaN: {self.signed_rate!r}")
        # written as "not >= 0" so that NaN is rejected too
        if not self.throughput >= 0.0:
            raise ValueError(f"throughput must be >= 0: {self.throughput!r}")

    @property
    def key_rate(self) -> float:
        """The key rate in bits per use: the signed rate clamped at 0."""
        return max(self.signed_rate, 0.0)
