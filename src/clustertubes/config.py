"""Rank and order limits, and the error raised past them.

Every exhaustive path in this package, and every closed form or series the
CLI prints, is desk-scale by design.  Each constant below guards one of
them.  Going past one raises :class:`CapExceeded` instead of silently
grinding; the CLI maps it to exit code 3.  ``TEXT_ENTRIES`` bounds memory
and refuses nothing: a text table kept across records stops growing there.
``_ECHO`` bounds the other side of outside input: how much of a malformed
value an error message quotes.
"""

import reprlib

BRUTE_RANK = 7  # torsion.enumerate_brute: subsets of the n(n-1) arc orbits
STRUCTURED_RANK = 9  # torsion._check_rank: every grammar walk (tau^s fixed points walk rank s)
POLYGON_BRUTE = 8  # polygons.enumerate_polygon: subsets of diagonals
SERIES_ORDER = 24  # cli.cmd_series, and cmd_verify's refined series row (the library is uncapped)
COUNT_RANK = 20_000  # cli.cmd_count, cmd_orbits: the closed-form counts (likewise)
REFINED_RANK = 150  # cli.cmd_count/cmd_orbits --refined, cmd_verify: the (k, l, m) table
PERP_ORBITS = 40_000  # cli.cmd_perp --max-length: the rank x (max_length - 1) orbits it tests
RECORD_RANK = 500  # cli._check_side_and_cap: the rank of decompose, compose, perp and render
TEXT_ENTRIES = 4_096  # arcs.half_orbits_json: the texts its table kept across records holds

# Error lines echo a malformed value through this: a short one prints as its
# repr, a long or deeply nested one (or an integer of more than 40 digits) as
# a bounded abbreviation of it.
_ECHO = reprlib.Repr()
_ECHO.maxlevel, _ECHO.maxstring, _ECHO.maxlist = 3, 40, 4


class CapExceeded(RuntimeError):
    """A rank or order was requested beyond its limit."""
