"""Polymatroid axiom checking and the flat / cyclic-flat structure.

A polymatroid here is a set function that is non-negative, monotone and
submodular.  A matroid is an integer polymatroid whose singleton ranks are
all 0 or 1.  Cyclic flats are the flats in which every element is either a
loop or has conditional rank strictly below its singleton rank; for a
polymatroid they always form a lattice under inclusion.  Flats are the
fixed points of the map ``_closure``, cyclic flats those of ``_cyclic_part``
too; the per-mask predicates apply these maps to one subset.

The whole-table scans (``check_polymatroid``, ``flats`` and
``cyclic_flats``) instead run one pass per element i (or pair i, j) over
the table's held ints, each pass comparing every A without i with A + i at
once, on the packed table or as slice passes (see ``model``).  A pass
marks the violating masks, the least of them the first witness; flat
marks are equality, and the cyclic flats are the masks no pass marks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import and_, gt, lt, ne, sub

from .lattice import RankedLattice
from .model import (
    Measure,
    SetFunction,
    _gains,
    _halves,
    _merged,
    _pack,
    bits,
    induced_measure,
)


class NotAFlat(ValueError):
    """Raised when an operation that needs a flat is handed something else."""


@dataclass(frozen=True)
class AxiomWitness:
    """A concrete violation of one polymatroid axiom.

    ``axiom`` is one of ``nonnegative``, ``monotone``, ``submodular``.
    For ``nonnegative`` the cited data is one subset; for ``monotone`` a
    nested pair; for ``submodular`` a base subset plus the two exchanged
    element indices.
    """

    axiom: str
    subsets: tuple[int, ...]
    elements: tuple[int, ...] = ()

    def describe(self, ground) -> str:
        sets = ", ".join(ground.describe(m) for m in self.subsets)
        if self.elements:
            names = ", ".join(ground.names[i] for i in self.elements)
            return f"{self.axiom} fails at {sets} with elements {names}"
        return f"{self.axiom} fails at {sets}"


@dataclass(frozen=True)
class PolymatroidReport:
    nonnegative: bool
    monotone: bool
    submodular: bool
    integer_valued: bool
    is_matroid: bool
    witness: AxiomWitness | None

    @property
    def is_polymatroid(self) -> bool:
        return self.nonnegative and self.monotone and self.submodular


def _nonnegative_witness(v: list) -> AxiomWitness | None:
    if min(v) >= 0:
        return None
    return AxiomWitness("nonnegative", (next(m for m, x in enumerate(v) if x < 0),))


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


def _packed_axioms(fields, table: int) -> tuple[list, list]:
    """The least violating mask of every monotone pass (i) and exchange
    pass (i, j) on a packed table, as ``(A, i)`` and ``(A, i, j)``."""
    w, n = fields.width, fields.n
    falls, rises = [], []
    for i in range(n):
        fall = fields.greater(table, table >> (w << i), fields.guards(i))
        if fall:
            falls.append((fields.first(fall), i))
    bias = fields.fill(1 << (w - 2))
    for i in range(n - 1):
        # v(A + i) - v(A) + 2^(W-2) at each A without i, 0 at the rest
        step = w << i
        gains = ((table >> step) + bias - table) & fields.fill((1 << (w - 1)) - 1, i)
        for j in range(i + 1, n):
            # at an A with i, the gains at A and A + j are both 0
            rise = fields.greater(gains >> (w << j), gains, fields.guards(j))
            if rise:
                rises.append((fields.first(rise), i, j))
    return falls, rises


def _sliced_axioms(v: list, n: int) -> tuple[list, list]:
    """``_packed_axioms`` as slice passes, on a list of ints or Fractions."""
    falls = [(a, i) for i in range(n) if (a := _first_pair(gt, v, 1 << i)) is not None]
    rises = []
    for i in range(n - 1):
        gains = _gains(v, 1 << i)
        low = (1 << i) - 1
        for j in range(i + 1, n):
            # in the gains, A sits at c with bit i cut out, and j at bit j - 1
            c = _first_pair(lt, gains, 1 << (j - 1))
            if c is not None:
                rises.append(((c & ~low) << 1 | c & low, i, j))
    return falls, rises


def check_polymatroid(f: SetFunction) -> PolymatroidReport:
    """Check the three axioms plus integrality and matroid-hood.

    The witness, when present, is the first violation found scanning
    non-negativity, then monotonicity, then submodularity, each in subset
    order.  The scans read the table's held ints over its common
    denominator, packed when its span allows, or the ``Fraction`` values
    when that denominator would be too long.

    Each axiom is a set of passes, one per element or element pair.
    Monotonicity needs only single-element steps, since a violating pair
    A < B yields a violating step on a chain between them: pass i looks for
    v(A) > v(A + i).  Submodularity needs only the local exchanges
    v(A+i) + v(A+j) >= v(A+i+j) + v(A) for i < j outside A: pass (i, j)
    looks for a rise of the gain of i from A to A + j.  The first violation
    in the scan order (A, i) or (A, i, j) is the least of the passes' least
    violating masks paired with their elements.
    """
    d, v = f._held
    n = f.ground.n
    w_nonneg = _nonnegative_witness(v)
    w_mono = w_sub = None
    packed = _pack(d, v)
    if packed:
        fields, table, _ = packed
        falls, rises = _packed_axioms(fields, table)
    else:
        falls, rises = _sliced_axioms(v, n)
    if falls:
        a, i = min(falls)
        w_mono = AxiomWitness("monotone", (a, a | 1 << i))
    if rises:
        a, i, j = min(rises)
        w_sub = AxiomWitness("submodular", (a,), (i, j))
    integer = f.is_integer_valued()
    is_poly = w_nonneg is None and w_mono is None and w_sub is None
    is_matroid = is_poly and integer and all(v[1 << i] in (0, 1) for i in range(n))
    return PolymatroidReport(
        nonnegative=w_nonneg is None,
        monotone=w_mono is None,
        submodular=w_sub is None,
        integer_valued=integer,
        is_matroid=is_matroid,
        witness=w_nonneg or w_mono or w_sub,
    )


def loops(f: SetFunction) -> int:
    """Mask of elements with singleton rank zero."""
    v = f._held[1]
    out = 0
    for i in range(f.ground.n):
        if v[1 << i] == 0:
            out |= 1 << i
    return out


def coloops(f: SetFunction) -> int:
    """Mask of elements whose removal from the full set costs their full rank.

    This is the polymatroid reading, f(E) - f(E - i) = f(i).  A loop
    (f(i) = 0) meets it as 0 = 0, so every loop is reported as a coloop
    too, unlike in matroid usage, where a loop never is one.
    """
    v = f._held[1]
    full = f.ground.full
    out = 0
    for i in range(f.ground.n):
        bit = 1 << i
        if v[full] - v[full ^ bit] == v[bit]:
            out |= bit
    return out


def _closure(v: list, n: int, subset: int) -> int:
    """``subset`` plus every element whose addition leaves ``v`` unchanged."""
    base = v[subset]
    out = subset
    for i in range(n):
        if v[subset | 1 << i] == base:
            out |= 1 << i
    return out


def _cyclic_part(v: list, flat: int) -> int:
    """``flat`` without every non-loop i with v(F) - v(F - i) >= v(i)."""
    top = v[flat]
    out = flat
    for i in bits(flat):
        single = v[1 << i]
        if single != 0 and top - v[flat ^ 1 << i] >= single:
            out ^= 1 << i
    return out


def _flat_marks(v: list, n: int) -> list[bool]:
    """Per mask, whether it is a flat: one pass per element i marks each A
    without i with v(A) = v(A + i) as no flat."""
    size = len(v)
    flat = [True] * size
    for i in range(n):
        for lo, hi in _halves(size, 1 << i):
            flat[lo] = map(and_, flat[lo], map(ne, v[lo], v[hi]))
    return flat


def _cyclic_marks(v: list, n: int) -> list[bool]:
    """Per mask, whether it is a cyclic flat: ``_flat_marks``, then one pass
    per non-loop i marks each A + i with v(A + i) - v(A) >= v(i)."""
    keep = _flat_marks(v, n)
    for i in range(n):
        single = v[1 << i]
        if single != 0:
            for lo, hi in _halves(len(v), 1 << i):
                keep[hi] = map(and_, keep[hi], map(lt, map(sub, v[hi], v[lo]), repeat(single)))
    return keep


def _packed_marks(fields, table: int, singles: list | None) -> int:
    """The guard bits of the masks that are no flat on a packed table, and,
    given the singleton values, of those that are not cyclic either."""
    w, n = fields.width, fields.n
    # the gains v(A + i) - v(A) lie within +-cap
    cap = (1 << (w - 2)) - 1
    marks = 0
    for i in range(n):
        step, at = w << i, fields.guards(i)
        up = table >> step
        marks |= fields.equal(table, up, at)
        if singles is not None and singles[i] != 0:
            # v(A + i) - v(A) >= v(i) keeps the guard of v(A + i) + 2^(W-1)
            # - v(i) - v(A); clipped to [-cap, cap + 1], v(i) marks the same
            # masks and the field neither borrows nor carries
            single = min(max(singles[i], -cap), cap + 1)
            marks |= ((up + fields.fill((1 << (w - 1)) - single) - table) & at) << step
    return marks


def _marked_flats(f: SetFunction, cyclic: bool) -> list[int]:
    """The flats of ``f``, or its cyclic flats, in mask order."""
    d, v = f._held
    n = f.ground.n
    packed = _pack(d, v)
    if packed:
        fields, table, _ = packed
        singles = [v[1 << i] for i in range(n)] if cyclic else None
        return fields.marked(fields.guard ^ _packed_marks(fields, table, singles))
    return list(compress(f.ground.subsets(), (_cyclic_marks if cyclic else _flat_marks)(v, n)))


def closure(f: SetFunction, subset: int) -> int:
    """Smallest flat containing ``subset``, for a polymatroid ``f``.

    One pass adds every element of conditional rank zero over ``subset``:
    together they add nothing (submodularity), so no other element has
    conditional rank zero over the result (monotonicity).
    """
    f.ground.check_mask(subset)
    return _closure(f._held[1], f.ground.n, subset)


def is_flat(f: SetFunction, subset: int) -> bool:
    """True when every element outside strictly raises the rank."""
    return closure(f, subset) == subset


def flats(f: SetFunction) -> list[int]:
    """All flats, ordered by (cardinality, bit pattern)."""
    return sorted(_marked_flats(f, cyclic=False), key=int.bit_count)


def is_cyclic_flat(f: SetFunction, subset: int) -> bool:
    """A flat is cyclic when each member is a loop or sits strictly below
    its singleton rank given the rest."""
    return is_flat(f, subset) and _cyclic_part(f._held[1], subset) == subset


def max_cyclic_flat(f: SetFunction, flat: int) -> int:
    """Largest cyclic flat inside ``flat``, for a polymatroid ``f``.

    One pass drops every non-loop i with f(F) - f(F-i) >= f(i), which on a
    polymatroid means = f(i); elsewhere the answer is unspecified.  Dropping
    such an i changes no other element's conditional rank: f(F-j) - f(F-i-j)
    lies between f(F) - f(F-i) = f(i) (submodularity) and f(i), so
    f(F) - f(F-j) = f(F-i) - f(F-i-j).
    """
    if not is_flat(f, flat):
        raise NotAFlat(f"{f.ground.describe(flat)} is not a flat")
    return _cyclic_part(f._held[1], flat)


def cyclic_flats(f: SetFunction) -> tuple[RankedLattice, Measure]:
    """The ranked lattice of cyclic flats together with the induced measure.

    Two marking passes per element i run on the held ints, packed when
    their span allows (on the ``Fraction`` values past the bound): A is no
    flat where v(A) = v(A + i), as in ``_closure``, and A + i is not cyclic
    where v(i) != 0 and v(A + i) - v(A) >= v(i), as in ``_cyclic_part``.
    The unmarked masks are the members, in mask order, with the ``Fraction``
    values as ranks.

    ``f`` must be a polymatroid.  The paper's theorem makes its cyclic flats
    a lattice, so the family is not checked again; on any other input the
    result is unspecified.  The CLI checks its input with
    ``check_polymatroid`` first.
    """
    family = [(m, f(m)) for m in _marked_flats(f, cyclic=True)]
    return RankedLattice(f.ground, family), induced_measure(f)


def reconstruction_failure(f: SetFunction) -> int | None:
    """First subset where the convolution of the cyclic flats of ``f`` with
    the induced measure disagrees with f; None when the identity holds.

    Assumes ``f`` passes the polymatroid check, as ``cyclic_flats`` does.
    """
    from .convolution import convolve  # convolution imports this module

    rebuilt = convolve(*cyclic_flats(f))
    if rebuilt == f:
        return None
    _, (v, w) = _merged(f._held, rebuilt._held)
    return next(compress(f.ground.subsets(), map(ne, v, w)), None)
