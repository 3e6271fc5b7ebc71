"""Ground sets, bitmask subsets, exact values, measures and dense set functions.

A subset of a ground set is a plain ``int``: bit ``i`` set means element ``i``
(in declaration order) belongs to the subset.  A measure is discrete: it
holds one point mass per element, and the measure of a subset is the sum of
its elements' masses, computed when asked for.  Every public value is a
``fractions.Fraction``; the strict inequalities used by the lattice condition
checkers would be unsound under floating point, so floats are refused
everywhere.

The 2^n kernels (the axiom scan, flats, cyclic-flat extraction and both
convolutions) and the lattice condition check only compare and add values,
and they do so on Python ints where they can.  ``_common_denominator``
writes a table as ints over one denominator d, the lcm of its denominators.
Multiplying every value by the same positive d keeps every comparison
between sums of values, so verdicts and first witnesses do not change.  The
pair (d, ints), or d None and the ``Fraction`` values past the bound below,
is the one form a ``SetFunction`` holds, and this module alone reads d: the
others only pass it on, to the 2^n entry points below and
``SetFunction._from_scaled``.  The bound is applied by ``_lcm_or_none``
alone, for its two callers.  ``_common_denominator`` works the pair out
from a list of exact values, as ``SetFunction(ground, values)`` does, and
``_keyed_lcm`` the bound from keyed entries, each distinct entry's
denominator read once.  ``_held``, the rank-file reader's one step, scales
each distinct ``Fraction`` once over it, and past 512 bits
``_lowest_terms`` hands ``_keyed_lcm`` its reduced ints with their
denominators, found by one gcd each.  ``_from_scaled`` takes ints over any d, or exact values with d
None, and brings them to lowest terms with ``_lowest_terms`` or falls back
to the ``Fraction`` values.  Equal tables therefore hold equal pairs, so
equality, hashing and ``is_integer_valued`` read the pair alone.
``_exact`` turns a held entry back into its value, the ``Fraction`` view
``values`` is built from the pair only when it is asked for, one
``Fraction`` per distinct value, and ``_merged`` brings held tables onto
one denominator.

Three computations walk all 2^n subsets of a table, and each has one
entry point here that takes the held pair and picks its own form:
``_axiom_violations`` (the least negative value, monotone step and local
exchange that fail), ``_marked_flats`` (the flats or cyclic flats in mask
order) and ``_least_covers`` (the superset-min transform and the measure
recurrence behind both convolutions).  A fourth, ``_cube_hulls``, walks
the subsets of a ground set for a lattice's members: the union of the
members inside each subset and the intersection of those containing it.  Each pairs every subset A with
A + i, one element i at a time, on the subset-cube layout of Yates's method
and of the zeta transforms in Bjorklund, Husfeldt, Kaski and Koivisto
("Fourier meets Moebius: fast subset convolution", STOC 2007).  Where the
ints allow it they run on a packed table (``_Fields``): one Python int with
a W-bit field per mask, the field of mask m at bit m·W, holding v(m) minus
the table's least value.  Shifting the table right by W·2^i lines the field
of A + i up with that of A, so one pass over all pairs is a few whole-table
int operations done in C: SIMD within a register (Lamport, "Multiple byte
processing with full-word instructions", CACM 18(8), 1975).  Fields stay
below 2^(W-2); the top bit of each field is its guard bit.  Adding
2^(W-1) - 1 to a field and subtracting another leaves the guard set exactly
where the first was larger, and no borrow or carry crosses into the next
field, so ``x > y`` for every pair is one add, one subtraction and a mask.
A bias of 2^(W-2) keeps a difference of two fields non-negative, which is
how the gains v(A + i) - v(A) are tabled.  A guard mask turns into a field
mask by subtracting it shifted down to the low bit, and the min of two
tables takes the fields of the second where that mask is set.

The width is a fixed rule, ``_packing``: the narrowest of 8, 16, 32 and 64
bits that holds the table's span (max - min, plus the largest weight that
``convolve`` adds) with two bits to spare.  Wider tables, and tables on the
``Fraction`` fallback below, keep slice passes: ``_halves`` hands out the
pairs as slices of the list, blocks for high bits and strides for low ones,
so that one pass costs about sqrt(2^n) Python steps and ``map`` with
``operator`` functions does the rest in C, and ``_gains`` uses the same
pairs to table v(A + i) - v(A).  ``array`` packs nothing wider than 64
bits, and wider fields, packed through ``int.to_bytes``, were measured
slower than slice passes.  No other module knows either layout.

The int form pays only while the lcm of a table's denominators stays small,
as it does when they are drawn from a few values.  Many pairwise coprime
denominators make d about as long as all of them together, and every scaled
value that long; so past a bound on the length of d the kernels run the same
slice passes on the ``Fraction`` values instead.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, count, repeat
from operator import add, and_, gt, lt, mul, ne, sub
from typing import Callable, Iterable, Iterator

MAX_GROUND_SIZE = 20

Rational = Fraction | int | str


class PolyflatsError(ValueError):
    """A refusal: the input fails a check or a construction's contract.

    The command line exits 1 on it, and 2 on its subclass ``InputError``.
    Both derive from ``ValueError``, so ``except ValueError`` still catches
    them.  Apart from the ``TypeError`` of ``to_fraction`` for a float, any
    other exception the library raises is a bug.
    """


class InputError(PolyflatsError):
    """Unreadable or malformed input: a file, a document or a parameter."""


class GroundSetMismatch(InputError):
    """Raised when two objects that must share a ground set do not."""


def to_fraction(value: Rational) -> Fraction:
    """Coerce ints, strings and Fractions to Fraction; floats are refused."""
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}: the library is exact-only")
    if isinstance(value, Fraction):
        return value
    try:
        return Fraction(value)
    except (TypeError, ValueError):
        raise InputError(f"bad rational {value!r}") from None
    except ZeroDivisionError:
        raise InputError(f"bad rational {value!r}: zero denominator") from None


class FileFormatError(InputError):
    """Malformed input, or a rational too long to write or read back."""


def format_rational(value: Fraction) -> str:
    try:
        return str(value)
    except ValueError:
        # str() refuses ints beyond sys.get_int_max_str_digits(), the same
        # limit files.parse_rational reads back under
        raise FileFormatError("rational too large to write: too many digits") from None


# The int form is kept while d has at most this many bits plus twice the
# mean bit length of the denominators.  Within that the ints together take
# about as much memory as the Fractions they are read from, each of which
# holds an object and a denominator besides its numerator; past it they
# could take many times more.
_LCM_BITS_SLACK = 512


def _lcm_or_none(denominators: set[int], lengths: Iterable[int], size: int) -> int | None:
    """The lcm of the distinct ``denominators`` of a table of ``size`` entries,
    or None when it has more bits than the bound above.

    ``lengths`` yields the bit length of each of the ``size`` denominators,
    repeats included, and is read only when the lcm passes
    ``_LCM_BITS_SLACK`` bits, since the bound is never below that; callers
    pass a lazy ``map``.  The lcm only grows with each denominator, so the
    loop can stop as soon as it passes the largest bound any mean allows.
    """
    cap = _LCM_BITS_SLACK + 2 * max(map(int.bit_length, denominators))
    d = 1
    for q in denominators:
        d = math.lcm(d, q)
        if d.bit_length() > cap:
            return None
    if d.bit_length() <= _LCM_BITS_SLACK:
        return d
    return None if d.bit_length() > _LCM_BITS_SLACK + 2 * sum(lengths) // size else d


def _common_denominator(values: tuple[Fraction, ...]) -> tuple[int | None, list]:
    """``(d, scaled)`` with ``values[m] == scaled[m] / d`` for every m.

    d is the lcm of the denominators and ``scaled`` holds ints, unless d
    would outgrow the bound above: then d is None and ``scaled`` holds the
    values themselves, on which the kernels' comparisons and sums run
    unchanged.
    """
    denominators = [v.denominator for v in values]
    distinct = set(denominators)
    d = _lcm_or_none(distinct, map(int.bit_length, denominators), len(values))
    if d is None:
        return None, list(values)
    if d == 1:
        # the numerators themselves, so that a kept table shares their objects
        return d, [v.numerator for v in values]
    factor = {q: d // q for q in distinct}
    return d, [v.numerator * factor[v.denominator] for v in values]


def _lowest_terms(d: int, scaled: list[int]) -> tuple[int | None, list]:
    """``_common_denominator`` of the values ``scaled[m] / d``, found from the
    ints: d shrinks by the gcd of d and all of them."""
    if d == 1:
        return d, scaled
    distinct = set(scaled)
    g = math.gcd(d, *distinct)
    if g > 1:
        d //= g
        smaller = {x: x // g for x in distinct}
        scaled = list(map(smaller.__getitem__, scaled))
        distinct = set(smaller.values())
    if d.bit_length() > _LCM_BITS_SLACK:  # only past this length can the bound refuse d
        if _keyed_lcm(scaled, {x: d // math.gcd(x, d) for x in distinct}) is None:
            value = {x: Fraction(x, d) for x in distinct}
            return None, list(map(value.__getitem__, scaled))
    return d, scaled


def _keyed_lcm(entries: list, denominator: dict) -> int | None:
    """``_lcm_or_none`` of the table whose entry at mask m has the
    denominator ``denominator[entries[m]]``, in lowest terms; each distinct
    entry's bit length is read once."""
    length = {e: q.bit_length() for e, q in denominator.items()}
    return _lcm_or_none(set(denominator.values()), map(length.__getitem__, entries), len(entries))


def _held(entries: list, value: dict) -> tuple[int | None, list]:
    """The held pair of the table whose entry at mask m is
    ``value[entries[m]]``: each distinct entry's ``Fraction`` is scaled
    once, to an int over the lcm of the denominators, or kept past the
    bound.  The pair is in lowest terms, as each ``Fraction`` is."""
    d = _keyed_lcm(entries, {e: q.denominator for e, q in value.items()})
    if d is not None:
        value = {e: q.numerator * (d // q.denominator) for e, q in value.items()}
    return d, list(map(value.__getitem__, entries))


def _exact(d: int | None, x) -> Fraction:
    """The exact value that the held entry ``x`` of a table over d stands for."""
    return Fraction(x) if d is None else Fraction(x, d)


def _exact_list(d: int | None, scaled: list) -> list[Fraction]:
    """The exact values of held entries over d, one ``Fraction`` per
    distinct entry."""
    value = {x: _exact(d, x) for x in set(scaled)}
    return list(map(value.__getitem__, scaled))


def _merged(*held: tuple[int | None, list]) -> tuple[int | None, list[list]]:
    """Held tables brought onto one denominator: ``(d, tables)`` with d the
    lcm of theirs, or d None and every table as its exact values when any
    of them is on the ``Fraction`` fallback."""
    if any(e is None for e, _ in held):
        return None, [_exact_list(e, scaled) for e, scaled in held]
    d = math.lcm(*(e for e, _ in held))
    return d, [scaled if e == d else list(map(mul, scaled, repeat(d // e))) for e, scaled in held]


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _halves(size: int, step: int) -> Iterator[tuple[slice, slice]]:
    """Slice pairs ``(lo, hi)`` that line each mask A without the bit
    ``step`` up with A + step, for a table of ``size`` entries (both powers
    of two, ``step < size``).

    Position by position, ``v[lo]`` runs over masks without the bit and
    ``v[hi]`` over the same masks with it; ``lo`` ascends.  A large step
    (step² >= size) pairs blocks of ``step`` consecutive masks, a small one
    the stride slices ``off::2·step`` for each ``off < step``, so there are
    at most about sqrt(size) pairs and ``map`` does the work per entry.
    """
    if step * step >= size:
        for lo in range(0, size, 2 * step):
            yield slice(lo, lo + step), slice(lo + step, lo + 2 * step)
    else:
        for off in range(step):
            yield slice(off, size, 2 * step), slice(off + step, size, 2 * step)


def _gains(v: list, step: int) -> list:
    """v[A + step] - v[A] for every mask A without the bit ``step``, at A's
    index with that bit cut out: the bits below it stay, those above move
    down one place."""
    g = [None] * (len(v) // 2)
    for lo, hi in _halves(len(v), step):
        # cutting the bit moves a block at 2·step·p to step·p and turns a
        # stride of 2·step into one of step
        if lo.step is None:
            cut = slice(lo.start // 2, lo.start // 2 + step)
        else:
            cut = slice(lo.start, None, step)
        g[cut] = map(sub, v[hi], v[lo])
    return g


_TYPECODE = {8 * array(code).itemsize: code for code in "QLIHB"}

# A layout is kept, with its guard masks, while each mask takes at most
# this many bits (n = 15 at W = 8); larger ones are built on each use, as
# all n guard masks at n = 20 would take n MB at W = 8 and 8n MB at W = 64.
# The kept layouts of every n and W together take under 5 MB.
_KEPT_MASK_BITS = 1 << 18


class _Fields:
    """Layout of a packed table of 2^n entries: the field of mask m holds
    the entry at bits m·W to m·W + W - 1 of one int.

    Entries lie in [0, 2^(W-2)); bit W - 1 of a field is its guard bit.
    ``ones`` has a 1 in every field, ``guard`` every guard bit set and
    ``low`` the W - 1 bits below each.
    """

    __slots__ = ("n", "width", "ones", "guard", "low", "_kept")

    def __init__(self, n: int, width: int):
        self.n, self.width = n, width
        self.ones = self._repeat((1).to_bytes(width // 8, "little"))
        self.guard = self.ones << (width - 1)
        self.low = self.guard - self.ones
        # the exchange passes ask for each guards(j) up to n - 1 times
        self._kept = [None] * n if width << n <= _KEPT_MASK_BITS else None

    def _repeat(self, period: bytes) -> int:
        """The table whose bytes repeat ``period``.  Built by doubling, since
        building it by int division would take quadratic time."""
        table, length = int.from_bytes(period, "little"), 8 * len(period)
        while length < self.width << self.n:
            table |= table << length
            length *= 2
        return table

    def fill(self, value: int) -> int:
        """``value`` (below 2^W) in every field."""
        return self.ones * value

    def guards(self, without: int) -> int:
        """The guard bits of the masks without bit ``without``."""
        if self._kept is not None and self._kept[without] is not None:
            return self._kept[without]
        field = (1 << (self.width - 1)).to_bytes(self.width // 8, "little")
        guards = self._repeat(field * (1 << without) + bytes(len(field) << without))
        if self._kept is not None:
            self._kept[without] = guards
        return guards

    def equal(self, x: int, y: int, at: int) -> int:
        """The guard bits in ``at`` of the fields where x = y: x + 2^(W-1) - y
        keeps its guard where x >= y, so x = y is a guard kept both ways."""
        return ((x | self.guard) - y) & ((y | self.guard) - x) & at

    def greater(self, x: int, y: int, at: int) -> int:
        """The guard bits in ``at`` of the fields where x > y.  x + low
        stays below 2^W and at or above y, so no field borrows or carries."""
        return (x + self.low - y) & at

    def lower(self, x: int, y: int, at: int) -> int:
        """The xor that turns x into min(x, y) in the fields whose guard is
        in ``at``: x ^ y where x > y, the guards of ``greater`` spread to the
        bits below them."""
        gt = self.greater(x, y, at)
        return (x ^ y) & (gt - (gt >> (self.width - 1)))

    def first(self, guards: int) -> int:
        """The least mask whose guard bit is set in ``guards`` (not 0)."""
        return ((guards & -guards).bit_length() - 1) // self.width

    def marked(self, guards: int) -> list[int]:
        """The masks whose guard bit is set in ``guards``, ascending: one
        byte per field read off after moving the guards to the low bits."""
        flags = (guards >> (self.width - 1)).to_bytes((self.width << self.n) // 8, "little")
        return list(compress(range(1 << self.n), flags[:: self.width // 8]))


_layouts: dict[tuple[int, int], _Fields] = {}


def _packing(n: int, span: int) -> _Fields | None:
    """The packed layout for a table whose entries and the sums a kernel
    forms lie within ``span`` of its least entry: the narrowest field of 8,
    16, 32 or 64 bits that holds ``span`` with a bias bit and a guard bit
    above it, or None past 62 bits, where the kernels keep slice passes.
    Layouts within ``_KEPT_MASK_BITS`` are built once."""
    for width in (8, 16, 32, 64):
        if span.bit_length() + 2 <= width:
            fields = _layouts.get((n, width))
            if fields is None:
                fields = _Fields(n, width)
                if fields._kept is not None:
                    _layouts[n, width] = fields
            return fields
    return None


def _pack(d: int | None, v: list, extra: int = 0) -> tuple[_Fields, int, int] | None:
    """``(fields, table, low)``: the held ints ``v`` of a table over d packed
    less their least value ``low``, in fields that leave room for sums up
    to ``extra`` above its largest; None on the ``Fraction`` fallback or
    past ``_packing``'s widest field."""
    if d is None:
        return None
    low = min(v)
    fields = _packing(len(v).bit_length() - 1, max(v) - low + extra)
    if fields is None:
        return None
    table = array(_TYPECODE[fields.width], map(sub, v, repeat(low)) if low else v)
    return fields, _packed(table), low


def _packed(entries: array) -> int:
    """The packed table of an array holding one field per mask, in mask
    order (the array is byte-swapped in place on a big-endian host)."""
    if sys.byteorder == "big":
        entries.byteswap()
    return int.from_bytes(entries.tobytes(), "little")


def _field_array(fields: _Fields, table: int) -> array:
    """The fields of a packed table as an array, one entry per mask."""
    out = array(_TYPECODE[fields.width], table.to_bytes((fields.width << fields.n) // 8, "little"))
    if sys.byteorder == "big":
        out.byteswap()
    return out


def _unpack(fields: _Fields, table: int, low: int) -> list[int]:
    """The ints a packed table stands for, its least value ``low`` added
    back: one int object per distinct value, as tables repeat few values."""
    out = _field_array(fields, table)
    value = {x: x + low for x in set(out)}
    return list(map(value.__getitem__, out))


def _first_pair(holds, t: list, step: int) -> int | None:
    """Least index A without the bit ``step`` with ``holds(t[A], t[A + step])``.

    The pass only asks whether any pair holds; the least index is looked for
    only when one does.
    """
    pairs = list(_halves(len(t), step))
    if not any(any(map(holds, t[lo], t[hi])) for lo, hi in pairs):
        return None
    masks = range(len(t))
    return min(next(compress(masks[lo], map(holds, t[lo], t[hi])), len(t)) for lo, hi in pairs)


def _axiom_violations(d: int | None, v: list) -> tuple[int | None, tuple | None, tuple | None]:
    """``(negative, fall, rise)`` for the held table ``(d, v)``: the least
    mask with a negative value, the least ``(A, i)`` with v(A) > v(A + i),
    and the least ``(A, i, j)``, i < j outside A, with
    v(A + i) + v(A + j) < v(A + i + j) + v(A); each None where there is none.

    Pass i compares every A without i with A + i; pass (i, j) compares the
    gain v(A + i) - v(A) at A with that at A + j.  Each pass yields its
    least violating mask, and the least of them with its elements is the
    first violation in the order (A, i) or (A, i, j).
    """
    n = len(v).bit_length() - 1
    packed = _pack(d, v)
    least = packed[2] if packed else min(v)
    negative = None if least >= 0 else next(compress(count(), map(lt, v, repeat(0))))
    falls, rises = [], []
    if packed is None:
        falls = [(a, i) for i in range(n) if (a := _first_pair(gt, v, 1 << i)) is not None]
        for i in range(n - 1):
            gains = _gains(v, 1 << i)
            low = (1 << i) - 1
            for j in range(i + 1, n):
                # in the gains, A sits at c with bit i cut out, and j at bit j - 1
                c = _first_pair(lt, gains, 1 << (j - 1))
                if c is not None:
                    rises.append(((c & ~low) << 1 | c & low, i, j))
    else:
        fields, table, _ = packed
        w = fields.width
        for i in range(n):
            fall = fields.greater(table, table >> (w << i), fields.guards(i))
            if fall:
                falls.append((fields.first(fall), i))
        bias = fields.fill(1 << (w - 2))
        for i in range(n - 1):
            # v(A + i) - v(A) + 2^(W-2) at each A without i, 0 at the rest
            at = fields.guards(i)
            gains = ((table >> (w << i)) + bias - table) & (at - (at >> (w - 1)))
            for j in range(i + 1, n):
                # at an A with i, the gains at A and A + j are both 0
                rise = fields.greater(gains >> (w << j), gains, fields.guards(j))
                if rise:
                    rises.append((fields.first(rise), i, j))
    return negative, min(falls, default=None), min(rises, default=None)


def _marked_flats(d: int | None, v: list, cyclic: bool) -> list[int]:
    """The flats of the held table ``(d, v)`` in mask order, or with
    ``cyclic`` its cyclic flats.

    Pass i marks each A without i with v(A) = v(A + i) as no flat, and for
    cyclic flats, when v(i) != 0, each A + i with v(A + i) - v(A) >= v(i)
    as not cyclic.  The members are the masks no pass marks.
    """
    n = len(v).bit_length() - 1
    singles = [v[1 << i] if cyclic else 0 for i in range(n)]
    packed = _pack(d, v)
    if packed is None:
        keep = [True] * len(v)
        for i, single in enumerate(singles):
            for lo, hi in _halves(len(v), 1 << i):
                a, b = v[lo], v[hi]
                keep[lo] = map(and_, keep[lo], map(ne, a, b))
                if single != 0:
                    keep[hi] = map(and_, keep[hi], map(lt, map(sub, b, a), repeat(single)))
        return list(compress(range(len(v)), keep))
    fields, table, _ = packed
    w = fields.width
    # the gains v(A + i) - v(A) lie within +-cap
    cap = (1 << (w - 2)) - 1
    marks = 0
    for i, single in enumerate(singles):
        step, at = w << i, fields.guards(i)
        up = table >> step
        marks |= fields.equal(table, up, at)
        if single != 0:
            # v(A + i) - v(A) >= v(i) keeps the guard of v(A + i) + 2^(W-1)
            # - v(i) - v(A); clipped to [-cap, cap + 1], v(i) marks the same
            # masks and the field neither borrows nor carries
            single = min(max(single, -cap), cap + 1)
            marks |= ((up + fields.fill((1 << (w - 1)) - single) - table) & at) << step
    return fields.marked(fields.guard ^ marks)


def _least_covers(d: int | None, h: list, weights: list = ()) -> list:
    """The superset-min transform of ``h``, the table seeded with the rank
    of what covers each mask, then the recurrence for each ``weights[i]``
    in turn: after element i, h[A] is the best cover of A that may leave
    out elements up to i at their weight.

    Transform pass i lowers each h(A) without i to h(A + i) where that is
    less; recurrence pass i lowers each h(A + i) to h(A) + weights[i].
    Packed when the span of ``h``, plus the largest weight, fits
    ``_packing``'s fields; else slice passes, in place."""
    packed = _pack(d, h, max(weights, default=0))
    if packed:
        fields, table, low = packed
        for i in range(fields.n):
            table ^= fields.lower(table, table >> (fields.width << i), fields.guards(i))
        for i, w in enumerate(weights):
            step = fields.width << i
            up = table >> step
            table ^= fields.lower(up, table + fields.fill(w), fields.guards(i)) << step
        return _unpack(fields, table, low)
    size = len(h)
    for i in range(size.bit_length() - 1):
        for lo, hi in _halves(size, 1 << i):
            h[lo] = map(min, h[lo], h[hi])
    for i, w in enumerate(weights):
        for lo, hi in _halves(size, 1 << i):
            h[hi] = map(min, h[hi], map(add, h[lo], repeat(w)))
    return h


def _cube_hulls(n: int, members: tuple[int, ...]) -> tuple[memoryview, memoryview]:
    """(inner, outer) over all 2^n masks: ``inner[X]`` is the union of the
    members inside X (0 if none), ``outer[U]`` the intersection of the
    members containing U (the ground set E if none).

    Each is a subset-cube transform on a packed table, the field of mask m
    at bit m·W in ``_packing``'s narrowest layout that holds a mask.  Seeded
    with each member Z at Z, pass i ORs the field of each X without i into
    that of X + i, which leaves the union of the members inside X at X.
    Seeded with E - Z at each member Z, the same passes run downwards, each
    U + i into U, leave E - outer[U] at U.  So n passes of a few whole-table
    int operations build each hull.
    """
    # _packing keeps two bits above a span spare, so fields that hold E >> 2
    # are the narrowest of 8, 16 or 32 bits that hold a mask
    full = (1 << n) - 1
    fields = _packing(n, full >> 2)
    inner = array(_TYPECODE[fields.width], bytes(fields.width << n >> 3))
    missed = inner[:]
    for z in members:
        inner[z], missed[z] = z, full ^ z
    inner, missed = _packed(inner), _packed(missed)
    for i in range(n):
        # E in the field of each mask without i
        step, without = fields.width << i, (fields.guards(i) >> (fields.width - 1)) * full
        inner |= (inner & without) << step
        missed |= (missed >> step) & without
    inner = memoryview(_field_array(fields, inner)).toreadonly()
    return inner, memoryview(_field_array(fields, fields.fill(full) ^ missed)).toreadonly()


def _check_ground_size(n: int) -> None:
    if n > MAX_GROUND_SIZE:
        raise PolyflatsError(f"ground set has {n} elements, limit is {MAX_GROUND_SIZE}")


@dataclass(frozen=True)
class GroundSet:
    """Ordered collection of distinct element labels, at most 20 of them.

    Element ``i`` is ``names[i]`` and corresponds to bit ``i`` in subset
    masks.  The declaration order is the canonical element order.
    """

    names: tuple[str, ...]
    _position: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        _check_ground_size(len(self.names))
        position = {}
        for i, name in enumerate(self.names):
            if not isinstance(name, str) or not name:
                raise PolyflatsError(f"bad element label {name!r}: labels are non-empty strings")
            try:
                name.encode()
            except UnicodeEncodeError:  # a lone surrogate, which no file can hold
                raise PolyflatsError(f"bad element label {name!r}: labels are valid Unicode") from None
            if name in position:
                raise PolyflatsError(f"duplicate element label {name!r}")
            position[name] = i
        object.__setattr__(self, "_position", position)

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def full(self) -> int:
        """Mask of the whole ground set."""
        return (1 << len(self.names)) - 1

    def subsets(self) -> range:
        """All subset masks, 0 through full."""
        return range(1 << len(self.names))

    def index(self, label: str) -> int:
        try:
            return self._position[label]
        except (KeyError, TypeError):  # TypeError: the label is unhashable
            raise PolyflatsError(f"unknown element {label!r}") from None

    def singleton(self, label: str) -> int:
        return 1 << self.index(label)

    def subset(self, labels: Iterable[str]) -> int:
        """Mask of the listed labels; an unknown or repeated label is refused."""
        mask = 0
        for label in labels:
            bit = 1 << self.index(label)
            if mask & bit:
                raise PolyflatsError(f"element {label!r} repeats")
            mask |= bit
        return mask

    def labels(self, mask: int) -> tuple[str, ...]:
        """Labels of a mask in declaration order."""
        self.check_mask(mask)
        return tuple(self.names[i] for i in bits(mask))

    def sorted_labels(self, mask: int) -> tuple[str, ...]:
        return tuple(sorted(self.labels(mask)))

    def describe(self, mask: int) -> str:
        """Human-readable subset, e.g. ``{x,y}``; the empty set is ``{}``."""
        return "{" + ",".join(self.sorted_labels(mask)) + "}"

    def check_mask(self, mask: int) -> int:
        if not isinstance(mask, int):
            raise PolyflatsError(f"mask {mask!r} is not an int")
        if not 0 <= mask <= self.full:
            raise PolyflatsError(f"mask {mask} is outside the ground set (n={self.n})")
        return mask


class SetFunction:
    """Dense table of exact values, one per subset of a ground set.

    A table holds one form, the pair ``_held = _common_denominator(values)``:
    ints over the lcm d of its denominators, or the ``Fraction`` values when
    d would be too long.  Both constructors bring what they are given to
    that form, so equal tables hold equal pairs.  The ``Fraction`` view
    ``values`` is built from the pair when it is asked for.
    """

    __slots__ = ("ground", "_values", "_held")

    def __init__(self, ground: GroundSet, values: Iterable[Rational]):
        table = [to_fraction(v) for v in values]
        if len(table) != 1 << ground.n:
            raise PolyflatsError(
                f"need {1 << ground.n} values for a ground set of {ground.n} elements, "
                f"got {len(table)}"
            )
        self.ground, self._values = ground, None
        self._held = _common_denominator(table)

    @classmethod
    def _from_held(cls, ground: GroundSet, held: tuple[int | None, list]) -> "SetFunction":
        """The table that holds ``held``, a pair already in its form."""
        f = cls.__new__(cls)
        f.ground, f._values, f._held = ground, None, held
        return f

    @classmethod
    def _from_scaled(cls, ground: GroundSet, d: int | None, scaled: list) -> "SetFunction":
        """The table of the values ``scaled[m] / d``, or of the exact values
        ``scaled`` when d is None, brought to its held pair."""
        held = _common_denominator(scaled) if d is None else _lowest_terms(d, scaled)
        return cls._from_held(ground, held)

    @property
    def values(self) -> tuple[Fraction, ...]:
        if self._values is None:
            self._values = tuple(_exact_list(*self._held))
        return self._values

    @classmethod
    def from_callable(cls, ground: GroundSet, fn: Callable[[int], Rational]) -> "SetFunction":
        return cls(ground, (fn(mask) for mask in ground.subsets()))

    def __call__(self, subset: int) -> Fraction:
        d, scaled = self._held
        return _exact(d, scaled[self.ground.check_mask(subset)])

    def singletons(self) -> tuple[Fraction, ...]:
        d, scaled = self._held
        return tuple(_exact(d, scaled[1 << i]) for i in range(self.ground.n))

    def is_integer_valued(self) -> bool:
        return self._held[0] == 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetFunction):
            return NotImplemented
        return (self.ground.names, self._held) == (other.ground.names, other._held)

    def __hash__(self) -> int:
        d, scaled = self._held
        return hash((self.ground.names, d, tuple(scaled)))

    def __repr__(self) -> str:
        return f"SetFunction(n={self.ground.n}, top={self(self.ground.full)})"


class Measure:
    """Additive set function held as its point masses, all non-negative."""

    __slots__ = ("ground", "singleton")

    def __init__(self, ground: GroundSet, singleton: Iterable[Rational]):
        values = tuple(to_fraction(v) for v in singleton)
        if len(values) != ground.n:
            raise PolyflatsError(f"need {ground.n} singleton values, got {len(values)}")
        for i, v in enumerate(values):
            if v < 0:
                raise PolyflatsError(f"negative measure {v} for element {ground.names[i]!r}")
        self.ground = ground
        self.singleton = values

    def table(self) -> tuple[Fraction, ...]:
        """Dense measure of every subset, built on each call."""
        return tuple(self(mask) for mask in self.ground.subsets())

    def __call__(self, subset: int) -> Fraction:
        return sum(
            (self.singleton[i] for i in bits(self.ground.check_mask(subset))), Fraction(0)
        )

    def is_integer_valued(self) -> bool:
        return all(v.denominator == 1 for v in self.singleton)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Measure):
            return NotImplemented
        return self.ground.names == other.ground.names and self.singleton == other.singleton

    def __hash__(self) -> int:
        return hash((self.ground.names, self.singleton))

    def __repr__(self) -> str:
        return f"Measure({dict(zip(self.ground.names, self.singleton))!r})"


def induced_measure(f: SetFunction) -> Measure:
    """The measure whose per-element values are f's singleton ranks."""
    for i, v in enumerate(f.singletons()):
        if v < 0:
            raise PolyflatsError(
                f"singleton rank of {f.ground.names[i]!r} is negative ({v}); "
                "no induced measure exists"
            )
    return Measure(f.ground, f.singletons())
