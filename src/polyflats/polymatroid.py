"""Polymatroid axiom checking and the flat / cyclic-flat structure.

A polymatroid here is a set function that is non-negative, monotone and
submodular.  A matroid is an integer polymatroid whose singleton ranks are
all 0 or 1.  Cyclic flats are the flats in which every element is either a
loop or has conditional rank strictly below its singleton rank; for a
polymatroid they always form a lattice under inclusion.  Flats are the
fixed points of the map ``_closure``, cyclic flats those of ``_cyclic_part``
too; the per-mask predicates apply these maps to one subset.

The whole-table computations, the axiom scan behind ``check_polymatroid``
and the flat marks behind ``flats`` and ``cyclic_flats``, are one call each
into ``model`` (``_axiom_violations`` and ``_marked_flats``), which says how
the 2^n subsets are walked.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import ne

from .lattice import RankedLattice
from .model import (
    Measure,
    PolyflatsError,
    SetFunction,
    _axiom_violations,
    _marked_flats,
    _merged,
    bits,
    induced_measure,
)


class NotAFlat(PolyflatsError):
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


def check_polymatroid(f: SetFunction) -> PolymatroidReport:
    """Check the three axioms plus integrality and matroid-hood.

    The witness, when present, is the first violation found scanning
    non-negativity, then monotonicity, then submodularity, each in subset
    order.

    Monotonicity needs only single-element steps, since a violating pair
    A < B yields a violating step on a chain between them: the first
    violation is the least (A, i) with v(A) > v(A + i).  Submodularity
    needs only the local exchanges v(A+i) + v(A+j) >= v(A+i+j) + v(A) for
    i < j outside A: the first violation is the least (A, i, j) where one
    fails.  ``model._axiom_violations`` finds both, and the least negative
    value, on the table's held form.
    """
    negative, fall, rise = _axiom_violations(*f._held)
    w_nonneg = w_mono = w_sub = None
    if negative is not None:
        w_nonneg = AxiomWitness("nonnegative", (negative,))
    if fall:
        a, i = fall
        w_mono = AxiomWitness("monotone", (a, a | 1 << i))
    if rise:
        a, i, j = rise
        w_sub = AxiomWitness("submodular", (a,), (i, j))
    integer = f.is_integer_valued()
    is_poly = w_nonneg is None and w_mono is None and w_sub is None
    is_matroid = is_poly and integer and all(v in (0, 1) for v in f.singletons())
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
    return sorted(_marked_flats(*f._held, cyclic=False), key=int.bit_count)


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

    The members are the masks A that are flats, where v(A + i) differs
    from v(A) for every i outside A, as in ``_closure``, and cyclic, where
    no non-loop i in A has v(A) - v(A - i) >= v(i), as in ``_cyclic_part``.
    ``model._marked_flats`` gives them in mask order, and they take the
    ``Fraction`` values as ranks.

    ``f`` must be a polymatroid.  The paper's theorem makes its cyclic flats
    a lattice, so the family is not checked again; on any other input the
    result is unspecified.  The CLI checks its input with
    ``check_polymatroid`` first.
    """
    family = [(m, f(m)) for m in _marked_flats(*f._held, cyclic=True)]
    return RankedLattice._from_family(f.ground, family), induced_measure(f)


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
