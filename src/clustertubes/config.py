"""Rank and order limits, and the error raised past them.

Every exhaustive path in this package, and every closed form or series the
CLI prints, is desk-scale by design.  Each constant below guards one of
them.  Going past one raises :class:`CapExceeded` instead of silently
grinding; the CLI maps it to exit code 3.  ``TEXT_ENTRIES`` bounds memory
and refuses nothing: a text cache kept across records evicts past it.
``_ECHO`` bounds the other side of outside input: how much of a malformed
value an error message quotes.  :class:`Frozen` is the base of the
package's value classes.
"""

import reprlib
import sys
from operator import attrgetter

BRUTE_RANK = 7  # torsion.enumerate_brute: subsets of the n(n-1) arc orbits
STRUCTURED_RANK = 9  # polygons._check_rank: every grammar walk (tau^s fixed points walk rank s)
POLYGON_BRUTE = 8  # pieces.enumerate_polygon: subsets of diagonals
SERIES_ORDER = 24  # commands.series, and verify's refined series row (the library is uncapped)
COUNT_RANK = 20_000  # commands.count, commands.orbits: the closed-form counts (likewise)
REFINED_RANK = 150  # count/orbits --refined, commands.verify: n^3/24 rows, each under n digits
PERP_ORBITS = 40_000  # commands.perp --max-length: the rank x (max_length - 1) orbits it tests
RECORD_RANK = 500  # commands.reading: decompose, compose, perp, render; records.key_width
TEXT_ENTRIES = 4_096  # records._arc_text, records._orbit_text: each one's LRU cache of texts


# Error lines echo a malformed value through this: a short one prints as its
# repr, a long or deeply nested one (or an integer of more than 40 digits) as
# a bounded abbreviation of it, and an integer past the int/str digit limit
# (as j - i of two ends read from a record can be) by its size.
class _Echo(reprlib.Repr):
    def repr_int(self, x: int, level: int) -> str:
        try:
            return super().repr_int(x, level)
        except ValueError:
            return f"<int of more than {sys.get_int_max_str_digits()} digits>"


_ECHO = _Echo()
_ECHO.maxlevel, _ECHO.maxstring, _ECHO.maxlist = 3, 40, 4


class CapExceeded(RuntimeError):
    """A rank or order was requested beyond its limit."""


class Frozen:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``__slots__``.  Its own ``__init__``
    checks its arguments, then hands the field values, in slot order, to
    ``Frozen.__init__``, the one writer of fields.  :meth:`_canonical` builds
    a value with no checks at all, only for values valid by construction.
    Instances of one class compare equal when their fields are equal, hash
    by their fields and print as ``Name(field=value, ...)``; assigning or
    deleting a field raises AttributeError.  The standard library's
    generator of such classes loads ``inspect`` and writes each class's
    methods when its module loads, about 20 ms of every command's start-up,
    which this class saves.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls.__slots__)
        # attrgetter of one name returns the value itself, not a 1-tuple
        cls._fields = staticmethod(get if len(cls.__slots__) > 1 else lambda self: (get(self),))
        # Each slot's own setter writes past the refusing __setattr__.
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls.__slots__)
        cls.__match_args__ = cls.__slots__

    def __init__(self, *values: object) -> None:
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    @classmethod
    def _canonical(cls, *values: object) -> "Frozen":
        """The value with these fields, in slot order, built without the
        class's checks.  Only for values valid by construction; the
        docstring of each class built this way states what that takes."""
        self = object.__new__(cls)
        for set_field, value in zip(cls._setters, values):  # Frozen.__init__ inlined: a call less
            set_field(self, value)
        return self

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            fields = self._fields
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._fields(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__: the default would set
        # each slot with setattr, which the class refuses
        return type(self), self._fields(self)
