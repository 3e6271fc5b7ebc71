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
mu(Z2) - mu(Z1), and C2 is scanned only when C* fails, since C* bounds
the same differences strictly.  C3 reads the lattice's bound tables: the
rank of each union's join, and the rank of each intersection's meet plus
the measure the meet leaves out, are worked out once per mask, and one
pass of maps tests every pair.  A comparable pair holds C3 with equality,
so no pair is filtered out, and only failing pairs come back to Python.

The lattice laws are checked once, where a family enters the library:
``RankedLattice(ground, family)`` refuses a bad mask, a repeated member, a
bad or negative rank, an empty family and the first pair without a meet or
a join, so every lattice built through the public API is one.
``validate_lattice``, the name the file reader calls, is that constructor.
The library's own families are lattices by construction (the paper's
theorem for cyclic flats, whole-block unions for the expansion), so its
builders skip the check through ``RankedLattice._from_family``.  ``_meet``
and ``_join`` find a pair's bounds or raise ``NotALattice``, and ``meet``,
``join`` and the bound tables go through them.  The meet of two members
depends only on their intersection and the join only on their union, so
``_bound_tables`` maps each distinct intersection and union of a member
pair to its bound, each found once; the constructor builds the tables and
C3 reads them.  The tables and the member order they come from are built
on first use and kept, so a lattice the library builds only for a
convolution pays for neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, compress, count, filterfalse, starmap
from operator import add, and_, eq, ge, gt, le, lt, or_
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
    include i itself).  ``_bound_tables()`` builds the meet and join of
    every member pair, keyed by their intersection and union, from that
    order on its first call and keeps them too.  The constructor checks
    the family, which builds both; ``_from_family`` skips the check and
    builds neither, since a convolution reads members and ranks alone.
    Immutable apart from the held order and tables.
    """

    __slots__ = ("ground", "members", "ranks", "_index", "_bitsets", "_tables")

    def __init__(self, ground: GroundSet, family: Iterable[tuple[int, Rational]]):
        """Check a ranked family and build its lattice.

        Each member must be a subset of ``ground``, appear once (else
        DuplicateElement) and carry a rank >= 0, and the family must not
        be empty.  Then every pair i < j in member order needs a meet and a
        join: ``_bound_tables`` finds them, and NotALattice names the first
        offending pair and the reason.
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
        self._bound_tables()  # each pair's meet and join, or NotALattice

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
        self._bitsets = self._tables = None

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

    def _bound_tables(self) -> tuple[dict[int, int], dict[int, int]]:
        """(meet_of, join_of), built on the first call and kept: the member
        index of the meet of each mask Zi & Zj and of the join of each mask
        Zi | Zj over the pairs i < j, each member mapped to itself.

        The meet of two members is the greatest member inside both, so it
        depends on Zi & Zj alone, and the join on Zi | Zj alone.  Row i
        maps Zi over the later members, and a mask new to a table is
        resolved once by ``_meet`` or ``_join`` on the first pair that
        makes it, so the first pair without a bound raises NotALattice.

        Rows are resolved meets first, yet the refusal is the first of a
        pair-by-pair scan that asks for the meet before the join, because
        the first row with a refused pair refuses one kind only.  A pair
        (i, j) without a meet either has no common lower bound, and then
        row 0 refuses a meet at each of its incomparable pairs, one of
        which is (0, i) or (0, j); or it has two largest common lower
        bounds A and B, smaller than Zi, and then A and B have no join (it
        would lie inside Zi and Zj and contain both, a larger common lower
        bound), so an earlier row refuses.
        """
        if self._tables is None:
            below, above = self._order()
            meet_of, join_of = dict(self._index), dict(self._index)
            for i, zi in enumerate(self.members):
                later = self.members[i + 1:]
                _resolve(meet_of, list(map(zi.__and__, later)), self._meet, below, i)
                _resolve(join_of, list(map(zi.__or__, later)), self._join, above, i)
            self._tables = meet_of, join_of
        return self._tables

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


def _resolve(table: dict[int, int], masks: list[int], bound, order, i: int) -> None:
    """Enter each mask of row i that ``table`` lacks, as ``bound(order, i,
    j)`` for the first later member j that makes it.  ``masks[t]`` comes
    from member i + 1 + t, and the masks still missing are met in order."""
    at = -1
    for mask in filterfalse(table.__contains__, masks):
        at = masks.index(mask, at + 1)
        table[mask] = bound(order, i, i + 1 + at)


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


def _exchange(lattice: RankedLattice, ranks, masses):
    """The C3 inequality for each pair i < j that fails it, in index order.

    ``high`` holds rank(join) for each union Zi | Zj and ``low`` holds
    rank(meet) + mu(X - meet) for each intersection X = Zi & Zj, read from
    the bound tables.  One pass of maps over ``combinations`` tests every
    pair, comparable ones included, since they hold C3 with equality, and
    only the pairs that fail come out of ``compress``.
    """
    members = lattice.members
    meet_of, join_of = lattice._bound_tables()
    high = {u: ranks[t] for u, t in join_of.items()}
    low = {
        x: ranks[t] + sum(map(masses.__getitem__, bits(x & ~members[t])))
        for x, t in meet_of.items()
    }
    joins = map(high.__getitem__, starmap(or_, combinations(members, 2)))
    meets = map(low.__getitem__, starmap(and_, combinations(members, 2)))
    fails = map(lt, starmap(add, combinations(ranks, 2)), map(add, joins, meets))
    for i, j in compress(combinations(range(len(members)), 2), fails):
        zi, zj = members[i], members[j]
        yield (zi, zj), ranks[i] + ranks[j], ">=", high[zi | zj] + low[zi & zj], None


def check_conditions(lattice: RankedLattice, mu: Measure) -> ConditionReport:
    """Evaluate all seven conditions; each failure carries the first witness
    in scan order (members ordered by cardinality then bit pattern; C3
    fails only at incomparable pairs).

    Ranks and point masses are read as ints over their common denominator
    d, or as the ``Fraction`` values when d would be too long (see
    ``model``); each condition is one loop over its inequalities, and only
    a witness turns back into ``Fraction``.  C3 reads the bound tables,
    which a lattice checked when it was built already holds.
    """
    if mu.ground.names != lattice.ground.names:
        raise GroundSetMismatch("measure and lattice use different ground sets")
    members, k = lattice.members, len(lattice.members)
    d, scaled = _common_denominator(lattice.ranks + mu.singleton)
    ranks, masses = scaled[:k], scaled[k:]
    value = partial(_exact, d)
    weights = [sum(masses[a] for a in bits(z)) for z in members]
    outside = lattice.ground.full & ~members[0]
    # C* passing bounds C2's differences strictly, so C2 is scanned only
    # when C* fails, for its own first witness
    cstar = _first_failure("C*", _nested(lattice, ranks, weights, ">", "<"), value)
    c2 = cstar or _first_failure("C2", _nested(lattice, ranks, weights, ">=", "<="), value)
    return ConditionReport(
        c1=_first_failure("C1", [((members[0],), ranks[0], "==", 0, None)], value),
        c2=c2,
        cstar=cstar,
        c3=_first_failure("C3", _exchange(lattice, ranks, masses), value),
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
