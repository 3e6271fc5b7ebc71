"""Ranked lattices of subsets: validation, meet/join, and condition checks.

A ranked lattice is a family of subsets of one ground set that is a lattice
under inclusion (every pair has a greatest lower bound and a least upper
bound inside the family), with an exact rank attached to each member.  Meet
and join are lattice operations of the family; the meet can be strictly
smaller than the set intersection.

``check_conditions`` evaluates, against a measure on the same ground set:

* C1   the bottom element has rank zero
* C2   0 <= rank(Z2) - rank(Z1) <= mu(Z2 - Z1) for nested members
* C*   both bounds of C2, strictly, for strictly nested members
* C3   rank(Z1) + rank(Z2) >= rank(join) + rank(meet) + mu((Z1 & Z2) - meet)
* C4   mu(a) <= rank(Z) whenever a lies in member Z
* C5a  rank(Z) > 0 for every member other than the bottom
* C5b  mu(a) > 0 for every ground element outside the bottom

Each condition is a list of required inequalities in scan order, and one
loop reports the first that fails, so each inequality is written once.  The
loop compares ranks and point masses as ints over their common denominator
(see ``model``) and turns only a witness back into ``Fraction``.  The
measure is never tabled over all subsets: C2 and C* take mu(Z2 - Z1) as
mu(Z2) - mu(Z1), and C3 visits only the incomparable pairs, since a
comparable pair holds it with equality.

The lattice laws are checked once, where a family enters the library:
``RankedLattice(ground, family)`` refuses a bad mask, a repeated member, a
bad or negative rank, an empty family and the first pair without a meet or
a join, so every lattice built through the public API is one.
``validate_lattice``, the name the file reader calls, is that constructor.
The library's own families are lattices by construction (the paper's
theorem for cyclic flats, whole-block unions for the expansion), so its
builders skip the check through ``RankedLattice._from_family``.  ``_meet``
and ``_join`` find a pair's bounds or raise ``NotALattice``; ``meet``,
``join`` and the one walk over the incomparable pairs, ``_bounds``, all go
through them, and the constructor drains that walk.  The walk reads the
member order, which a lattice builds on first use and keeps, so a lattice
the library builds only for a convolution never pays for it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import count
from operator import eq, ge, gt, le, lt
from typing import Iterable, Iterator

from .model import (
    GroundSet,
    GroundSetMismatch,
    InputError,
    Measure,
    Rational,
    _common_denominator,
    _exact,
    bits,
    format_rational,
    to_fraction,
)


class LatticeError(InputError):
    """Base for family-validation failures."""


class DuplicateElement(LatticeError):
    pass


class NotALattice(LatticeError):
    def __init__(self, ground: GroundSet, first: int, second: int, reason: str):
        self.first = first
        self.second = second
        self.reason = reason
        super().__init__(
            f"{reason} for {ground.describe(first)} and {ground.describe(second)}"
        )


class ElementNotInLattice(LatticeError):
    pass


class RankedLattice:
    """A lattice of subsets with a rank on each member, its order built on
    demand.

    Members are sorted by (cardinality, bit pattern), so the bottom is
    ``members[0]`` and the top is ``members[-1]``.  ``_order()`` builds the
    order on its first call and keeps it, as two tuples of bitsets over
    member indices: bit t of ``below[i]`` is set when member t lies inside
    member i, bit t of ``above[i]`` when member t contains member i (both
    include i itself).  The constructor checks the family, which builds
    the order; ``_from_family`` skips the check and builds no order, since
    a convolution reads members and ranks alone.  Immutable apart from
    that held order.
    """

    __slots__ = ("ground", "members", "ranks", "_index", "_bitsets")

    def __init__(self, ground: GroundSet, family: Iterable[tuple[int, Rational]]):
        """Check a ranked family and build its lattice.

        Each member must be a subset of ``ground``, appear once (else
        DuplicateElement) and carry a rank >= 0, and the family must not
        be empty.  Then every pair i < j in member order needs a meet and a
        join: ``_bounds`` finds them, and NotALattice names the first
        offending pair and the reason.  Only incomparable pairs are
        visited, since a nested pair has its lower member as meet and its
        upper member as join.
        """
        raw: dict[int, Fraction] = {}
        for mask, rank in family:
            ground.check_mask(mask)
            if mask in raw:
                raise DuplicateElement(f"duplicate member {ground.describe(mask)}")
            value = to_fraction(rank)
            if value < 0:
                raise LatticeError(f"negative rank {value} for member {ground.describe(mask)}")
            raw[mask] = value
        self._sort(ground, raw)
        deque(_bounds(self), maxlen=0)  # each pair's meet and join, or NotALattice

    @classmethod
    def _from_family(cls, ground: GroundSet, family: Iterable[tuple[int, Fraction]]):
        """The lattice of a family the library built as one, unchecked: a
        mask that repeats keeps its last rank, and ranks below zero stay."""
        lattice = cls.__new__(cls)
        lattice._sort(ground, dict(family))
        return lattice

    def _sort(self, ground: GroundSet, rank: dict[int, Fraction]) -> None:
        """Hold the members of ``rank`` in member order with their ranks."""
        if not rank:
            raise LatticeError("empty family: a lattice needs at least one member")
        self.ground = ground
        self.members = tuple(sorted(sorted(rank), key=int.bit_count))
        self.ranks = tuple(map(rank.__getitem__, self.members))
        self._index = dict(zip(self.members, count()))
        self._bitsets = None

    def _order(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(below, above), built by one containment scan on the first call."""
        if self._bitsets is None:
            members, k = self.members, len(self.members)
            below, above = [0] * k, [0] * k
            # Distinct members in cardinality order: Zi inside Zj forces i <= j.
            for i, low in enumerate(members):
                for j in range(i, k):
                    if not low & ~members[j]:
                        below[j] |= 1 << i
                        above[i] |= 1 << j
            self._bitsets = tuple(below), tuple(above)
        return self._bitsets

    @property
    def bottom(self) -> int:
        return self.members[0]

    @property
    def top(self) -> int:
        return self.members[-1]

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in self._index

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return zip(self.members, self.ranks)

    def _require(self, mask: int) -> int:
        idx = self._index.get(mask)
        if idx is None:
            raise ElementNotInLattice(
                f"{self.ground.describe(mask)} is not in the lattice"
            )
        return idx

    def rank_of(self, mask: int) -> Fraction:
        return self.ranks[self._require(mask)]

    def meet(self, first: int, second: int) -> int:
        below = self._order()[0]
        return self.members[self._meet(below, self._require(first), self._require(second))]

    def join(self, first: int, second: int) -> int:
        above = self._order()[1]
        return self.members[self._join(above, self._require(first), self._require(second))]

    def _meet(self, below: tuple[int, ...], i: int, j: int) -> int:
        """The index of the greatest lower bound of members i and j, read
        from ``below`` of the order.  Cardinality order puts it last among
        their common lower bounds; it is one exactly when it holds them all."""
        common = below[i] & below[j]
        glb = common.bit_length() - 1
        if common and not common & ~below[glb]:
            return glb
        raise NotALattice(self.ground, self.members[i], self.members[j], "no unique lower bound")

    def _join(self, above: tuple[int, ...], i: int, j: int) -> int:
        """The index of the least upper bound, read from ``above``: the first
        common upper bound, if it lies inside all of them."""
        common = above[i] & above[j]
        lub = (common & -common).bit_length() - 1
        if common and not common & ~above[lub]:
            return lub
        raise NotALattice(self.ground, self.members[i], self.members[j], "no unique upper bound")

    def covers(self) -> list[tuple[int, int]]:
        """The Hasse relation: (low, high) member pairs, high covering low."""
        below, above = self._order()
        out = []
        for i, up in enumerate(above):
            for j in bits(up & ~(1 << i)):
                if up & below[j] == 1 << i | 1 << j:
                    out.append((self.members[i], self.members[j]))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, RankedLattice):
            return NotImplemented
        return (
            self.ground.names == other.ground.names
            and self.members == other.members
            and self.ranks == other.ranks
        )

    def __hash__(self) -> int:
        return hash((self.ground.names, self.members, self.ranks))

    def __repr__(self) -> str:
        body = ", ".join(
            f"{self.ground.describe(m)}:{r}" for m, r in self.items()
        )
        return f"RankedLattice({body})"


def _bounds(lattice: RankedLattice) -> Iterator[tuple[int, int, int, int]]:
    """(i, j, meet, join) for each incomparable pair i < j, in index order,
    meet and join as member indices: every member containing Zi comes after
    it, and is in ``above[i]``.  The first pair without a meet, or else
    without a join, raises ``NotALattice``."""
    below, above = lattice._order()
    meet, join, k = lattice._meet, lattice._join, len(above)
    for i, up in enumerate(above):
        for j in bits(((1 << k) - (2 << i)) & ~up):
            yield i, j, meet(below, i, j), join(above, i, j)


def validate_lattice(
    ground: GroundSet, elements: Iterable[tuple[int, Rational]]
) -> RankedLattice:
    """Check a ranked family from outside the library and build its lattice:
    ``RankedLattice(ground, elements)``, whose refusals it raises."""
    return RankedLattice(ground, elements)


def normalize_pointed(lattice: RankedLattice) -> RankedLattice:
    """Shift every rank down by the bottom rank, making the bottom zero.

    The nested-difference and pair conditions (C2, C*, C3) are invariant
    under this shift.  If some member ranked below the bottom, the result
    carries a negative rank, which C2 then flags; ranks are not checked
    here, so the shift never raises.
    """
    base = lattice.ranks[0]
    if base == 0:
        return lattice
    return RankedLattice._from_family(lattice.ground, ((m, r - base) for m, r in lattice.items()))


@dataclass(frozen=True)
class Witness:
    """One failed inequality: ``lhs relation rhs`` is what was required.

    ``subsets`` holds the cited member masks, ``element`` the ground element
    index for the per-element conditions.
    """

    condition: str
    subsets: tuple[int, ...]
    lhs: Fraction
    relation: str
    rhs: Fraction
    element: int | None = None

    def describe(self, ground: GroundSet) -> str:
        where = ", ".join(ground.describe(m) for m in self.subsets)
        if self.element is not None:
            named = f"element {ground.names[self.element]}"
            where = f"{where}, {named}" if where else named
        return (
            f"at {where}: needs {format_rational(self.lhs)} {self.relation} "
            f"{format_rational(self.rhs)}"
        )


@dataclass(frozen=True)
class Verdict:
    passed: bool
    witness: Witness | None = None

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class ConditionReport:
    c1: Verdict
    c2: Verdict
    cstar: Verdict
    c3: Verdict
    c4: Verdict
    c5a: Verdict
    c5b: Verdict

    def named(self) -> tuple[tuple[str, Verdict], ...]:
        return (
            ("C1", self.c1),
            ("C2", self.c2),
            ("C*", self.cstar),
            ("C3", self.c3),
            ("C4", self.c4),
            ("C5a", self.c5a),
            ("C5b", self.c5b),
        )

    def theorem_conditions_pass(self) -> bool:
        """The characterizing set: C1, C*, C3, C4 and both halves of C5."""
        return bool(
            self.c1 and self.cstar and self.c3 and self.c4 and self.c5a and self.c5b
        )

    def all_pass(self) -> bool:
        return all(v.passed for _, v in self.named())

    def lines(self, ground: GroundSet) -> list[str]:
        out = []
        for name, verdict in self.named():
            if verdict.passed:
                out.append(f"{name:<4} pass")
            else:
                out.append(f"{name:<4} FAIL {verdict.witness.describe(ground)}")
        return out


_HOLDS = {"==": eq, ">=": ge, "<=": le, ">": gt, "<": lt}


def _first_failure(condition: str, required, value) -> Verdict:
    """The first of the ``required`` inequalities that does not hold.

    ``required`` yields ``(subsets, lhs, relation, rhs, element)`` in scan
    order, with both sides on the kernel's scale; ``value`` turns a side
    back into the ``Fraction`` the witness reports.
    """
    for subsets, lhs, relation, rhs, element in required:
        if not _HOLDS[relation](lhs, rhs):
            return Verdict(
                False, Witness(condition, subsets, value(lhs), relation, value(rhs), element)
            )
    return Verdict(True)


def _nested(lattice: RankedLattice, ranks, weights, lower: str, upper: str):
    """``diff lower 0`` then ``diff upper mu(Zj - Zi)`` for each nested pair.

    The pairs Zi inside Zj come from ``above[i]`` without Zi itself, so j
    ascends as in a scan over every pair.  ``weights`` holds the member
    measures, whose differences are the measures of the differences.
    """
    members, above = lattice.members, lattice._order()[1]
    for i, z1 in enumerate(members):
        for j in bits(above[i] & ~(1 << i)):
            pair, diff = (z1, members[j]), ranks[j] - ranks[i]
            yield pair, diff, lower, 0, None
            yield pair, diff, upper, weights[j] - weights[i], None


def _incomparable(lattice: RankedLattice, ranks, masses):
    """The C3 inequality for each incomparable pair that ``_bounds``
    yields, in index order."""
    members = lattice.members
    for i, j, meet, join in _bounds(lattice):
        z1, z2 = members[i], members[j]
        correction = sum(masses[a] for a in bits(z1 & z2 & ~members[meet]))
        yield (
            (z1, z2), ranks[i] + ranks[j], ">=", ranks[join] + ranks[meet] + correction, None
        )


def check_conditions(lattice: RankedLattice, mu: Measure) -> ConditionReport:
    """Evaluate all seven conditions; each failure carries the first witness
    in scan order (members ordered by cardinality then bit pattern, C3 over
    incomparable pairs only).

    Ranks and point masses are read as ints over their common denominator
    d, or as the ``Fraction`` values when d would be too long (see
    ``model``); each condition is one loop over its inequalities, and only
    a witness turns back into ``Fraction``.  The lattice was checked when
    it was built, so the C3 scan stops at its witness.
    """
    if mu.ground.names != lattice.ground.names:
        raise GroundSetMismatch("measure and lattice use different ground sets")
    members, k = lattice.members, len(lattice.members)
    d, scaled = _common_denominator(lattice.ranks + mu.singleton)
    ranks, masses = scaled[:k], scaled[k:]
    value = partial(_exact, d)
    weights = [sum(masses[a] for a in bits(z)) for z in members]
    outside = lattice.ground.full & ~members[0]
    return ConditionReport(
        c1=_first_failure("C1", [((members[0],), ranks[0], "==", 0, None)], value),
        c2=_first_failure("C2", _nested(lattice, ranks, weights, ">=", "<="), value),
        cstar=_first_failure("C*", _nested(lattice, ranks, weights, ">", "<"), value),
        c3=_first_failure("C3", _incomparable(lattice, ranks, masses), value),
        c4=_first_failure(
            "C4",
            (((z,), masses[a], "<=", r, a) for z, r in zip(members, ranks) for a in bits(z)),
            value,
        ),
        c5a=_first_failure(
            "C5a", (((z,), r, ">", 0, None) for z, r in zip(members[1:], ranks[1:])), value
        ),
        c5b=_first_failure("C5b", (((), masses[a], ">", 0, a) for a in bits(outside)), value),
    )
