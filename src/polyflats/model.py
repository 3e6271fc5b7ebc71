"""Ground sets, bitmask subsets, exact values, measures and dense set functions.

A subset of a ground set is a plain ``int``: bit ``i`` set means element ``i``
(in declaration order) belongs to the subset.  A measure is discrete: it
holds one point mass per element, and the measure of a subset is the sum of
its elements' masses, computed when asked for.  Every public value is a
``fractions.Fraction``; the strict inequalities used by the lattice condition
checkers would be unsound under floating point, so floats are refused
everywhere.

The 2^n kernels (the axiom scan, cyclic-flat extraction and both
convolutions) and the lattice condition check only compare and add values,
and they do so on Python ints where they can.  ``_common_denominator`` writes
a table as ints over one denominator d, the lcm of its denominators.
Multiplying every value by the same positive d keeps every comparison
between sums of values, so verdicts and first witnesses do not change; the
kernels turn back to ``Fraction`` only for the values they return.

Each 2^n kernel pairs every subset A with A + i, one element i at a time.
``_halves`` hands out those pairs as slices of the table, blocks for high
bits and strides for low ones, so that one pass costs about sqrt(2^n)
Python steps and ``map`` with ``operator`` functions does the rest in C:
the layout of Yates's method and of the zeta transforms in Bjorklund,
Husfeldt, Kaski and Koivisto ("Fourier meets Moebius: fast subset
convolution", STOC 2007).  ``_gains`` uses the same pairs to table
v(A + i) - v(A) over the half of the table without i.

This pays only while the lcm of a table's denominators stays small, as it
does when they are drawn from a few values.  Many pairwise coprime
denominators make d about as long as all of them together, and every scaled
value that long; so past a bound on the length of d the kernels run the same
scans on the ``Fraction`` values instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import sub
from typing import Callable, Iterable, Iterator

MAX_GROUND_SIZE = 20

Rational = Fraction | int | str


class GroundSetMismatch(ValueError):
    """Raised when two objects that must share a ground set do not."""


def to_fraction(value: Rational) -> Fraction:
    """Coerce ints, strings and Fractions to Fraction; floats are refused."""
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}: the library is exact-only")
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


class FileFormatError(ValueError):
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


def _common_denominator(values: tuple[Fraction, ...]) -> tuple[int | None, list]:
    """``(d, scaled)`` with ``values[m] == scaled[m] / d`` for every m.

    d is the lcm of the denominators and ``scaled`` holds ints, unless d
    would outgrow the bound above: then d is None and ``scaled`` holds the
    values themselves, on which the kernels' comparisons and sums run
    unchanged.
    """
    denominators = [v.denominator for v in values]
    limit = _LCM_BITS_SLACK + 2 * sum(map(int.bit_length, denominators)) // len(values)
    distinct = set(denominators)
    d = 1
    for q in distinct:
        d = math.lcm(d, q)
        if d.bit_length() > limit:
            return None, list(values)
    factor = {q: d // q for q in distinct}
    return d, [v.numerator * factor[v.denominator] for v in values]


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int) -> Iterator[int]:
    """All subsets of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


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
        if len(self.names) > MAX_GROUND_SIZE:
            raise ValueError(
                f"ground set has {len(self.names)} elements, limit is {MAX_GROUND_SIZE}"
            )
        position = {}
        for i, name in enumerate(self.names):
            if not isinstance(name, str) or not name:
                raise ValueError(f"bad element label {name!r}: labels are non-empty strings")
            if name in position:
                raise ValueError(f"duplicate element label {name!r}")
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
            raise ValueError(f"unknown element {label!r}") from None

    def singleton(self, label: str) -> int:
        return 1 << self.index(label)

    def subset(self, labels: Iterable[str]) -> int:
        """Mask of the listed labels; an unknown or repeated label is refused."""
        mask = 0
        for label in labels:
            bit = 1 << self.index(label)
            if mask & bit:
                raise ValueError(f"element {label!r} repeats")
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
        if not 0 <= mask <= self.full:
            raise ValueError(f"mask {mask} is outside the ground set (n={self.n})")
        return mask


class SetFunction:
    """Dense table of exact values, one per subset of a ground set."""

    __slots__ = ("ground", "values")

    def __init__(self, ground: GroundSet, values: Iterable[Rational]):
        table = tuple(to_fraction(v) for v in values)
        if len(table) != 1 << ground.n:
            raise ValueError(
                f"need {1 << ground.n} values for a ground set of {ground.n} elements, "
                f"got {len(table)}"
            )
        self.ground = ground
        self.values = table

    @classmethod
    def from_callable(cls, ground: GroundSet, fn: Callable[[int], Rational]) -> "SetFunction":
        return cls(ground, (fn(mask) for mask in ground.subsets()))

    def __call__(self, subset: int) -> Fraction:
        return self.values[self.ground.check_mask(subset)]

    def singletons(self) -> tuple[Fraction, ...]:
        return tuple(self.values[1 << i] for i in range(self.ground.n))

    def is_integer_valued(self) -> bool:
        return all(v.denominator == 1 for v in self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetFunction):
            return NotImplemented
        return self.ground.names == other.ground.names and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.ground.names, self.values))

    def __repr__(self) -> str:
        return f"SetFunction(n={self.ground.n}, top={self.values[-1]})"


class Measure:
    """Additive set function held as its point masses, all non-negative."""

    __slots__ = ("ground", "singleton")

    def __init__(self, ground: GroundSet, singleton: Iterable[Rational]):
        values = tuple(to_fraction(v) for v in singleton)
        if len(values) != ground.n:
            raise ValueError(f"need {ground.n} singleton values, got {len(values)}")
        for i, v in enumerate(values):
            if v < 0:
                raise ValueError(f"negative measure {v} for element {ground.names[i]!r}")
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
            raise ValueError(
                f"singleton rank of {f.ground.names[i]!r} is negative ({v}); "
                "no induced measure exists"
            )
    return Measure(f.ground, f.singletons())
