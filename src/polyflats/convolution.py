"""Building set functions out of ranked lattices.

The single-lattice form pairs a lattice with a measure:

    r(A) = min over members Z of  rank(Z) + mu(A - Z)

The two-lattice form covers A by a member from each lattice:

    r(A) = min over Z1, Z2 with A inside Z1 | Z2 of  rank1(Z1) + rank2(Z2)

Neither scans the members once per subset.  Both seed a table with the
ranks of what covers (a member, or the union of a pair), then take its
superset-min transform ``h(A) = min{h(Z) : Z contains A}``.  For two
lattices h is the answer.  For one lattice the measure pays for the part of
A a member leaves out, by the recurrence

    r(A) = min(h(A), min over i in A of  r(A - i) + mu(i))

which holds because mu >= 0: an optimal Z either contains A, giving h(A),
or misses some i in A, and then rank(Z) + mu(A - Z) is rank(Z) +
mu((A - i) - Z) + mu(i), at least r(A - i) + mu(i); conversely each
right-hand term is the value of some Z at A or exceeds one.

``model._least_covers`` takes the transform and the recurrence, on ints
over the common denominator of the ranks and the measure, so the result is
exact.  The result keeps its ints, over the lcm of its own denominators,
which may be smaller than that of the ranks and the measure.

``verify_main_theorem`` closes the loop: convolve, re-extract the cyclic
flats of the result, and compare them (and the singleton ranks) with what
the convolution was built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import ConditionReport, RankedLattice, check_conditions
from .model import (
    GroundSet,
    GroundSetMismatch,
    Measure,
    SetFunction,
    _common_denominator,
    _least_covers,
    bits,
    format_rational,
)
from .polymatroid import check_polymatroid, cyclic_flats


def convolve(lattice: RankedLattice, mu: Measure) -> SetFunction:
    """The min-cover value of every subset against the ranked members."""
    if mu.ground.names != lattice.ground.names:
        raise GroundSetMismatch("measure and lattice use different ground sets")
    k = len(lattice.members)
    d, scaled = _common_denominator(lattice.ranks + mu.singleton)
    ranks, weights = scaled[:k], scaled[k:]
    # Every r(A) is at most rank(bottom) + mu(ground), so that bound can
    # stand for "no member contains A" without changing any minimum.
    h = [ranks[0] + sum(weights)] * (1 << lattice.ground.n)
    for z, rank in zip(lattice.members, ranks):
        h[z] = rank
    return SetFunction._from_scaled(lattice.ground, d, _least_covers(d, h, weights))


def convolve_lattices(first: RankedLattice, second: RankedLattice) -> SetFunction:
    """Two-lattice convolution; both lattices must share one ground set.

    The result lives on the union of the two tops, restricted to those
    elements in ground-set order, since only subsets of that union can be
    covered.
    """
    if first.ground.names != second.ground.names:
        raise GroundSetMismatch("two-lattice convolution needs a shared ground set")
    source = first.ground
    keep = list(bits(first.top | second.top))
    ground = GroundSet(tuple(source.names[i] for i in keep))

    def restrict(mask: int) -> int:
        return sum(1 << pos for pos, i in enumerate(keep) if mask >> i & 1)

    k = len(first.members)
    d, scaled = _common_denominator(first.ranks + second.ranks)
    ones = [(restrict(m), r) for m, r in zip(first.members, scaled[:k])]
    twos = [(restrict(m), r) for m, r in zip(second.members, scaled[k:])]
    # The two tops cover every subset, so their sum bounds every value.
    h = [ones[-1][1] + twos[-1][1]] * (1 << ground.n)
    for u1, r1 in ones:
        for u2, r2 in twos:
            if r1 + r2 < h[u1 | u2]:
                h[u1 | u2] = r1 + r2
    return SetFunction._from_scaled(ground, d, _least_covers(d, h))


@dataclass(frozen=True)
class RecoveryMismatch:
    """One place where re-extraction disagreed with the convolution input.

    ``kind`` is one of ``not_polymatroid``, ``missing_cyclic_flat``,
    ``unexpected_cyclic_flat``, ``rank_differs``, ``singleton_differs``.
    """

    kind: str
    subset: int | None = None
    element: int | None = None
    expected: Fraction | None = None
    actual: Fraction | None = None

    def describe(self, ground: GroundSet) -> str:
        if self.kind == "not_polymatroid":
            return "convolution output fails the polymatroid axioms"
        if self.kind == "missing_cyclic_flat":
            return f"{ground.describe(self.subset)} is not a cyclic flat of the output"
        if self.kind == "unexpected_cyclic_flat":
            return f"{ground.describe(self.subset)} is a cyclic flat of the output but not a member"
        if self.kind == "rank_differs":
            return (
                f"{ground.describe(self.subset)} has output rank "
                f"{format_rational(self.actual)}, member rank {format_rational(self.expected)}"
            )
        return (
            f"element {ground.names[self.element]} has output rank "
            f"{format_rational(self.actual)}, expected {format_rational(self.expected)}"
        )


@dataclass(frozen=True)
class RoundTripReport:
    conditions: ConditionReport
    is_polymatroid: bool
    lattice_recovered: bool
    measure_recovered: bool
    mismatches: tuple[RecoveryMismatch, ...]
    outside_top: tuple[str, ...]

    @property
    def round_trip_ok(self) -> bool:
        return (
            self.conditions.theorem_conditions_pass()
            and self.is_polymatroid
            and self.lattice_recovered
            and self.measure_recovered
        )


def verify_main_theorem(lattice: RankedLattice, mu: Measure) -> RoundTripReport:
    """Condition report plus a full convolve / re-extract round trip.

    Whenever the characterizing conditions all pass, the three recovery
    flags must come back true; anything else is a defect.  Ground elements
    outside the top member are reported but are not a failure by themselves.
    """
    conditions = check_conditions(lattice, mu)
    r = convolve(lattice, mu)
    report = check_polymatroid(r)

    mismatches: list[RecoveryMismatch] = []
    lattice_recovered = False
    measure_recovered = False

    if report.is_polymatroid:
        extracted, extracted_mu = cyclic_flats(r)
        wanted = dict(lattice.items())
        got = dict(extracted.items())
        for m in lattice.members:
            if m not in got:
                mismatches.append(RecoveryMismatch("missing_cyclic_flat", subset=m))
        for m in extracted.members:
            if m not in wanted:
                mismatches.append(RecoveryMismatch("unexpected_cyclic_flat", subset=m))
        for m, rank in lattice.items():
            if m in got and got[m] != rank:
                mismatches.append(
                    RecoveryMismatch(
                        "rank_differs", subset=m, expected=rank, actual=got[m]
                    )
                )
        lattice_recovered = wanted == got

        measure_recovered = True
        bottom = lattice.bottom
        for i in range(lattice.ground.n):
            expected = Fraction(0) if bottom >> i & 1 else mu.singleton[i]
            actual = extracted_mu.singleton[i]
            if actual != expected:
                measure_recovered = False
                mismatches.append(
                    RecoveryMismatch(
                        "singleton_differs", element=i, expected=expected, actual=actual
                    )
                )
    else:
        mismatches.append(RecoveryMismatch("not_polymatroid"))

    outside = lattice.ground.full & ~lattice.top
    return RoundTripReport(
        conditions=conditions,
        is_polymatroid=report.is_polymatroid,
        lattice_recovered=lattice_recovered,
        measure_recovered=measure_recovered,
        mismatches=tuple(mismatches),
        outside_top=lattice.ground.labels(outside),
    )
