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
(see ``model``) and turns only a witness back into ``Fraction``.  mu is
listed once over the whole subset cube, from the point masses by n
doublings.  C2 and C* take mu(Z2 - Z1) as mu(Z2) - mu(Z1) from that list,
and C2 is scanned only when C* fails, since C* bounds the same differences
strictly.  C3 reads the lattice's hulls (below): rank(outer[U]), the rank
of the join of a pair with union U, and rank(inner[X]) + mu(X) -
mu(inner[X]), the rank of the meet of a pair with intersection X plus the
measure the meet leaves out, are listed over the subset cube by C-level
maps, and one pass of maps tests every pair.  A comparable pair holds C3
with equality, so no pair is filtered out, and only failing pairs come
back to Python.

The lattice laws are checked once, where a family enters the library:
``RankedLattice(ground, family)`` refuses a bad mask, a repeated member, a
bad or negative rank, an empty family and the first pair without a meet or
a join, so every lattice built through the public API is one.
``validate_lattice``, the name the file reader calls, is that constructor.
The library's own families are lattices by construction (the paper's
theorem for cyclic flats, whole-block unions for the expansion), so its
builders skip the check through ``RankedLattice._from_family``.

The check, ``meet``, ``join`` and C3 read two hulls of the family over the
subset cube of the ground set E:

    inner[X] = the union of the members inside X          (0 if none)
    outer[U] = the intersection of the members containing U  (E if none)

The common lower bounds of two members are the members inside their
intersection X, so the pair has a meet, a greatest common lower bound,
exactly when their union inner[X] is a member, and inner[X] is then the
meet.  Dually the pair has a join exactly when outer[U] is a member, U
their union.  Each hull is a subset-cube transform of n whole-table passes
on packed fields, so both take O(n·2^n) word operations whatever k is.

The hulls also certify a whole family at once: it is a lattice if and only
if inner[outer[X]] is a member at every mask X.  If: X = E has outer[E] = E,
so inner[E], the union of all members, is a member, a top.  The
intersection X of a pair has outer[X] = X, since both members contain X,
so inner[X] is a member, and it is the pair's meet.  A finite family with
a top in which every pair has a meet is a lattice: the join of a pair is
the meet of its common upper bounds, which include the top.  Only if: a
lattice has a top T.  If no member contains X, then outer[X] = E and
inner[E] = T.  Otherwise outer[X] is the intersection of the members S
containing X, so the members inside it are the common lower bounds of S,
and their union is the meet of S, a member.  No mask need be filtered out:
outer is idempotent, so the test at X repeats the test at the mask
outer[X], where outer[X] = X.

The certificate reads the 2^n masks and the pair pass the k(k-1)/2 pairs,
each with a few C-level ``map`` steps, so the constructor takes the
certificate when 2^n < k(k-1)/2 and the pair pass otherwise.  Both passes
stay: the certificate only says whether the family is a lattice, so a
family that fails it goes through the pair pass too, which names the first
pair in member order without a meet or a join, the meet asked for first.
A lattice holds only its members, ranks and hulls.  The hulls are built on
first use and kept, so a lattice the library builds only for a convolution
pays for none; the containment order that C2, C* and the Hasse diagram
read is built by each call that reads it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, compress, repeat, starmap
from operator import add, and_, eq, ge, gt, le, lt, not_, or_, sub
from typing import Iterable, Iterator

from .model import (
    GroundSet,
    GroundSetMismatch,
    InputError,
    Measure,
    Rational,
    _common_denominator,
    _cube_hulls,
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
    """A lattice of subsets with a rank on each member, and the hulls its
    check built.

    Members are sorted by (cardinality, bit pattern), so the bottom is
    ``members[0]`` and the top is ``members[-1]``, and a member is found by
    bisection in that order.  ``_hulls()`` builds ``inner`` and ``outer``
    (see the module docstring) as read-only views with one 8-, 16- or
    32-bit field per mask, checks the family with the certificate when
    2^n < k(k-1)/2 or else with the pair pass, and keeps them; meet and
    join read them.  The constructor checks the family, which builds the
    hulls; ``_from_family`` skips the check and builds none, since a
    convolution reads members and ranks alone.  Immutable apart from the
    held hulls.
    """

    __slots__ = ("ground", "members", "ranks", "_cube")

    def __init__(self, ground: GroundSet, family: Iterable[tuple[int, Rational]]):
        """Check a ranked family and build its lattice.

        Each member must be a subset of ``ground``, appear once (else
        DuplicateElement) and carry a rank >= 0, and the family must not
        be empty.  Then every pair i < j in member order needs a meet and a
        join: ``_hulls`` checks them, and NotALattice names the first
        offending pair and the reason.
        """
        raw: dict[int, Fraction] = {}
        full = ground.full
        for mask, rank in family:
            # a plain int in range and a Fraction pass as they are; anything
            # else takes the checks that refuse it
            if type(mask) is not int or not 0 <= mask <= full:
                ground.check_mask(mask)
            if mask in raw:
                raise DuplicateElement(f"duplicate member {ground.describe(mask)}")
            value = rank if type(rank) is Fraction else to_fraction(rank)
            if value.numerator < 0:
                raise LatticeError(f"negative rank {value} for member {ground.describe(mask)}")
            raw[mask] = value
        self._sort(ground, raw)
        self._hulls()  # each pair's meet and join, or NotALattice

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
        self._cube = None

    def _hulls(self) -> tuple[memoryview, memoryview]:
        """(inner, outer) of ``_cube_hulls``, built on the first call and
        kept once the family has passed the certificate or the pair pass;
        else NotALattice for the first pair without a meet or a join."""
        if self._cube is None:
            members, k = self.members, len(self.members)
            member = set(members)
            hulls = inner, outer = _cube_hulls(self.ground.n, members)
            if len(inner) >= k * (k - 1) // 2 or not _certified(member, inner, outer):
                meets = map(inner.__getitem__, starmap(and_, combinations(members, 2)))
                joins = map(outer.__getitem__, starmap(or_, combinations(members, 2)))
                bounded = map(and_, map(member.__contains__, meets), map(member.__contains__, joins))
                for i, j in compress(combinations(range(k), 2), map(not_, bounded)):
                    zi, zj = members[i], members[j]
                    side = "lower" if inner[zi & zj] not in member else "upper"
                    raise NotALattice(self.ground, zi, zj, f"no unique {side} bound")
            self._cube = hulls
        return self._cube

    @property
    def bottom(self) -> int:
        return self.members[0]

    @property
    def top(self) -> int:
        return self.members[-1]

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, mask: int) -> bool:
        return isinstance(mask, int) and self._find(mask) is not None

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return zip(self.members, self.ranks)

    def _find(self, mask: int) -> int | None:
        """The position of ``mask`` among the members, by bisection in
        member order, or None when it is no member."""
        i = bisect_left(self.members, (mask.bit_count(), mask), key=lambda m: (m.bit_count(), m))
        return i if i < len(self.members) and self.members[i] == mask else None

    def _require(self, mask: int) -> int:
        """The position of member ``mask``, after ``GroundSet.check_mask``."""
        idx = self._find(self.ground.check_mask(mask))
        if idx is None:
            raise ElementNotInLattice(f"{self.ground.describe(mask)} is not in the lattice")
        return idx

    def rank_of(self, mask: int) -> Fraction:
        return self.ranks[self._require(mask)]

    def meet(self, first: int, second: int) -> int:
        """The greatest member inside both, ``inner`` of their intersection."""
        self._require(first)
        self._require(second)
        return self._hulls()[0][first & second]

    def join(self, first: int, second: int) -> int:
        """The least member containing both, ``outer`` of their union."""
        self._require(first)
        self._require(second)
        return self._hulls()[1][first | second]

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


def _containment(members: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(below, above) of members in member order, by one containment scan:
    bit t of ``below[i]`` is set when member t lies inside member i, bit t
    of ``above[i]`` when member t contains member i (both include i)."""
    k = len(members)
    below, above = [0] * k, [0] * k
    # Distinct members in cardinality order: Zi inside Zj forces i <= j.
    for i, low in enumerate(members):
        for j in range(i, k):
            if not low & ~members[j]:
                below[j] |= 1 << i
                above[i] |= 1 << j
    return tuple(below), tuple(above)


def _covers(members: tuple[int, ...]) -> list[tuple[int, int]]:
    """The Hasse relation of members in member order: (low, high) member
    pairs, high covering low, read off a containment scan of its own."""
    below, above = _containment(members)
    out = []
    for i, up in enumerate(above):
        for j in bits(up & ~(1 << i)):
            if up & below[j] == 1 << i | 1 << j:
                out.append((members[i], members[j]))
    return out


def _certified(member: set[int], inner: memoryview, outer: memoryview) -> bool:
    """Whether the family of ``member`` is a lattice, read off its hulls:
    inner[outer[X]] is a member at every mask X (see the module
    docstring)."""
    return all(map(member.__contains__, map(inner.__getitem__, outer)))


def validate_lattice(
    ground: GroundSet, elements: Iterable[tuple[int, Rational]]
) -> RankedLattice:
    """Check a ranked family from outside the library and build its lattice:
    ``RankedLattice(ground, elements)``, whose refusals it raises."""
    return RankedLattice(ground, elements)


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


def _nested(members, above, ranks, mu: list, lower: str, upper: str):
    """``diff lower 0`` then ``diff upper mu(Zj - Zi)`` for each nested pair.

    The pairs Zi inside Zj come from ``above[i]`` of ``_containment``
    without Zi itself, so j ascends as in a scan over every pair.  ``mu``
    lists the measure of every mask, and mu(Zj) - mu(Zi) is the measure of
    the difference.
    """
    for i, z1 in enumerate(members):
        for j in bits(above[i] & ~(1 << i)):
            pair, diff = (z1, members[j]), ranks[j] - ranks[i]
            yield pair, diff, lower, 0, None
            yield pair, diff, upper, mu[pair[1]] - mu[z1], None


def _exchange(lattice: RankedLattice, ranks, mu: list):
    """The C3 inequality for each pair i < j that fails it, in index order.

    Over the subset cube, ``high[U]`` is rank(outer[U]), the rank of the
    join of a pair with union U, and ``low[X]`` is rank(inner[X]) + mu(X) -
    mu(inner[X]), the rank of the meet of a pair with intersection X plus
    mu(X - meet); masks whose hull is no member get rank 0, and no pair
    reads them.  ``mu`` lists the measure of every mask; the caller keeps
    no other reference to it, so it is freed before ``high`` is built.  One
    pass of maps over ``combinations`` tests every pair, comparable ones
    included, since they hold C3 with equality, and only the pairs that
    fail come out of ``compress``.
    """
    members = lattice.members
    inner, outer = lattice._hulls()
    rank = dict(zip(members, ranks))
    low = list(map(add, map(rank.get, inner, repeat(0)), map(sub, mu, map(mu.__getitem__, inner))))
    del mu
    high = list(map(rank.get, outer, repeat(0)))
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
    a witness turns back into ``Fraction``.  C3 reads the hulls, which a
    lattice checked when it was built already holds.
    """
    if mu.ground.names != lattice.ground.names:
        raise GroundSetMismatch("measure and lattice use different ground sets")
    members, k = lattice.members, len(lattice.members)
    d, scaled = _common_denominator(lattice.ranks + mu.singleton)
    ranks, masses = scaled[:k], scaled[k:]
    value = partial(_exact, d)
    mu_of = [0]  # the measure of every mask, by doubling element by element
    for mass in masses:
        mu_of += list(map(add, mu_of, repeat(mass)))
    above = _containment(members)[1]
    # C* passing bounds C2's differences strictly, so C2 is scanned only
    # when C* fails, for its own first witness
    cstar = _first_failure("C*", _nested(members, above, ranks, mu_of, ">", "<"), value)
    c2 = cstar or _first_failure("C2", _nested(members, above, ranks, mu_of, ">=", "<="), value)
    exchange = _exchange(lattice, ranks, mu_of)
    del mu_of  # _exchange holds the last reference and drops it before high
    outside = lattice.ground.full & ~members[0]
    return ConditionReport(
        c1=_first_failure("C1", [((members[0],), ranks[0], "==", 0, None)], value),
        c2=c2,
        cstar=cstar,
        c3=_first_failure("C3", exchange, value),
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
