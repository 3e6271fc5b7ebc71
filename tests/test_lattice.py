"""Lattice validation, meet/join, and the seven compatibility conditions."""

import collections
import random
from fractions import Fraction

import pytest

from polyflats import (
    DuplicateElement,
    ElementNotInLattice,
    GroundSet,
    GroundSetMismatch,
    LatticeError,
    Measure,
    NotALattice,
    RankedLattice,
    check_conditions,
    cyclic_flats,
    graphic_matroid,
    helgason_expand,
    helgason_lattice,
    infiltrate_via_lattices,
    normalize_pointed,
    reconstruction_failure,
    validate_lattice,
)
from polyflats import constructions, lattice
from polyflats.files import lattice_dot, write_lattice
from polyflats.model import _common_denominator

import _oracles
import corpus


def ground(labels):
    return GroundSet(tuple(labels))


def chain_lattice(ranks=(0, 3)):
    g = ground("xy")
    return g, validate_lattice(g, [(0, ranks[0]), (0b11, ranks[1])])


def test_validate_chain():
    g, lat = chain_lattice()
    assert len(lat) == 2
    assert lat.bottom == 0
    assert lat.top == 0b11
    assert lat.rank_of(0b11) == 3
    assert 0b11 in lat
    assert 0b01 not in lat


def test_validate_sorts_members_by_size():
    g = ground("ab")
    lat = validate_lattice(g, [(0b11, 2), (0, 0), (0b10, 1), (0b01, 1)])
    assert lat.members == (0, 0b01, 0b10, 0b11)
    assert lat.meet(0b01, 0b10) == 0
    assert lat.join(0b01, 0b10) == 0b11


def test_members_sort_by_size_then_mask_on_shuffled_families():
    rng = random.Random(11)
    g = ground("abcdefgh")
    for _ in range(50):
        masks = rng.sample(range(1 << 8), rng.randint(1, 60))
        rank = {m: Fraction(rng.randint(0, 9), rng.randint(1, 3)) for m in masks}
        lat = RankedLattice._from_family(g, rank.items())
        assert lat.members == tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))
        assert lat.ranks == tuple(rank[m] for m in lat.members)
        assert all(lat.members[lat._require(m)] == m for m in masks)


def test_a_repeated_mask_keeps_its_last_rank():
    lat = RankedLattice._from_family(ground("ab"), [(0b11, 2), (0, 0), (0b11, 3)])
    assert lat.members == (0, 0b11)
    assert lat.ranks == (0, 3)


def test_validate_rejects_duplicates():
    g = ground("xy")
    with pytest.raises(DuplicateElement):
        validate_lattice(g, [(0, 0), (0, 1)])


def test_validate_rejects_negative_rank_and_empty_family():
    g = ground("xy")
    with pytest.raises(LatticeError):
        validate_lattice(g, [(0, -1)])
    with pytest.raises(LatticeError) as info:
        validate_lattice(g, [])
    # the unchecked constructor refuses the empty family too, with the same text
    with pytest.raises(LatticeError) as unvalidated:
        RankedLattice._from_family(g, [])
    assert str(unvalidated.value) == str(info.value)


def _refused_the_same_without_validation(g, elements, refused):
    """The condition check on the family built unchecked meets the same
    pair first in its C3 scan and gives the same text."""
    with pytest.raises(NotALattice) as info:
        check_conditions(RankedLattice._from_family(g, elements), mu_from(g, [1] * g.n))
    assert str(info.value) == str(refused)


def test_validate_rejects_missing_meet():
    g = ground("xy")
    elements = [(0b01, 1), (0b10, 1), (0b11, 2)]
    with pytest.raises(NotALattice) as info:
        validate_lattice(g, elements)
    assert info.value.reason == "no unique lower bound"
    assert {info.value.first, info.value.second} == {0b01, 0b10}
    _refused_the_same_without_validation(g, elements, info.value)


def test_validate_rejects_missing_join():
    g = ground("xyz")
    elements = [(0, 0), (0b001, 1), (0b010, 1)]
    with pytest.raises(NotALattice) as info:
        validate_lattice(g, elements)
    assert info.value.reason == "no unique upper bound"
    _refused_the_same_without_validation(g, elements, info.value)


def test_conditions_stop_at_the_c3_witness_of_a_checked_lattice(monkeypatch):
    # the constructor built and checked the hulls, so C3 reads the held
    # ones and builds none of its own
    g = ground("abcd")
    pairs = [m for m in range(16) if m.bit_count() == 2]
    lat = validate_lattice(g, [(0, 0), (g.full, 2)] + [(m, 1) for m in pairs])

    def refuse(n, members):
        raise AssertionError(f"C3 built hulls for {len(members)} members")

    monkeypatch.setattr(lattice, "_cube_hulls", refuse)
    rep = check_conditions(lat, mu_from(g, [1] * g.n))
    assert rep.c3.witness.subsets == (0b0011, 0b0101)


def test_bound_tables_are_built_once_for_a_lattice_checked_twice(monkeypatch):
    # the bounds live in the two subset-cube hulls, built once by the
    # constructor and read by both checks, meet and join
    built = []
    build = lattice._cube_hulls

    def record(n, members):
        built.append(build(n, members))
        return built[-1]

    monkeypatch.setattr(lattice, "_cube_hulls", record)
    _, made, mu = max(corpus.harvested(), key=lambda entry: len(entry[1]))
    lat = validate_lattice(made.ground, made.items())
    first, second = check_conditions(lat, mu), check_conditions(lat, mu)
    assert len(built) == 1 and lat._hulls() is built[0]
    assert first == second == _oracles.check_conditions_reference(lat, mu)
    inner, outer = built[0]
    meet, join = _oracles.pair_scan_reference(lat.ground, list(lat.items()))
    members = lat.members
    for i, z1 in enumerate(members):
        for j, z2 in enumerate(members):
            assert inner[z1 & z2] == lat.meet(z1, z2) == members[meet[i][j]]
            assert outer[z1 | z2] == lat.join(z1, z2) == members[join[i][j]]
    assert len(built) == 1


def test_rank_of_unknown_member():
    _, lat = chain_lattice()
    with pytest.raises(ElementNotInLattice):
        lat.rank_of(0b01)
    # anything that is not a member mask is not in the lattice
    for other in ([1], [0b11], "x", 0b100, -1, None):
        assert other not in lat


def test_meet_join_on_two_triangle_lattice():
    # triangles e1,e2,e3 and e3,e4,e5 share the edge e3
    f = graphic_matroid(4, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)])
    lat, _ = cyclic_flats(f)
    t1 = f.ground.subset(["e1", "e2", "e3"])
    t2 = f.ground.subset(["e2", "e4", "e5"])
    assert t1 in lat and t2 in lat
    # the shared edge alone is not cyclic, so the meet drops to bottom
    assert lat.meet(t1, t2) == 0
    assert lat.join(t1, t2) == f.ground.full


def test_lattice_laws_on_random_closed_families():
    for seed in range(25):
        f = corpus.full_corpus()[40 + seed]
        lat, _ = corpus.closed_random_lattice(seed, f)
        for a in lat.members:
            for b in lat.members:
                assert lat.meet(a, b) == lat.meet(b, a)
                assert lat.join(a, b) == lat.join(b, a)
                assert lat.meet(a, lat.join(a, b)) == a
                assert lat.join(a, lat.meet(a, b)) == a
            assert lat.meet(a, lat.bottom) == lat.bottom
            assert lat.join(a, lat.top) == lat.top


def mu_from(g, values):
    return Measure(g, [Fraction(v) for v in values])


def test_conditions_all_pass_on_plain_chain():
    g, lat = chain_lattice()
    rep = check_conditions(lat, mu_from(g, [2, 2]))
    assert rep.all_pass()
    assert rep.theorem_conditions_pass()
    for name, verdict in rep.named():
        assert verdict.passed and verdict.witness is None
    assert [line.split()[1] for line in rep.lines(g)] == ["pass"] * 7


def test_element_witness_lines():
    # C4 names a member and an element, C5b an element alone
    g, lat = chain_lattice((0, 1))
    lines = check_conditions(lat, mu_from(g, [2, 0])).lines(g)
    assert lines[4] == "C4   FAIL at {x,y}, element x: needs 2 <= 1"
    assert lines[6] == "C5b  FAIL at element y: needs 0 > 0"


def test_conditions_strict_gap_failure():
    # rank jump equals the measure of the gap, so the strict check fails
    g, lat = chain_lattice((0, 4))
    mu = mu_from(g, [2, 2])
    rep = check_conditions(lat, mu)
    assert rep.c2.passed
    assert not rep.cstar.passed
    w = rep.cstar.witness
    assert w.subsets == (0, 0b11)
    assert (w.lhs, w.relation, w.rhs) == (Fraction(4), "<", Fraction(4))
    assert _oracles.condition_witness_violates(lat, mu, w)
    assert rep.c1.passed and rep.c3.passed and rep.c4.passed
    assert rep.c5a.passed and rep.c5b.passed
    assert not rep.theorem_conditions_pass()


def test_conditions_nonzero_bottom_failure():
    g = ground("xy")
    lat = validate_lattice(g, [(0, 1), (0b11, 4)])
    mu = mu_from(g, [2, 2])
    rep = check_conditions(lat, mu)
    assert not rep.c1.passed
    assert rep.c1.witness.lhs == 1
    assert _oracles.condition_witness_violates(lat, mu, rep.c1.witness)
    # everything else is fine for this pair
    assert rep.c2.passed and rep.cstar.passed and rep.c3.passed
    assert rep.c4.passed and rep.c5a.passed and rep.c5b.passed
    # C1 asks for equality: the unchecked constructor admits a bottom below zero
    below = RankedLattice._from_family(g, [(0, Fraction(-1)), (0b11, Fraction(4))])
    assert check_conditions(below, mu).lines(g)[0] == "C1   FAIL at {}: needs -1 == 0"


def test_conditions_measure_above_rank_failure():
    g, lat = chain_lattice((0, 3))
    mu = mu_from(g, [5, 2])
    rep = check_conditions(lat, mu)
    assert not rep.c4.passed
    w = rep.c4.witness
    assert w.element == 0
    assert (w.lhs, w.relation, w.rhs) == (Fraction(5), "<=", Fraction(3))
    assert _oracles.condition_witness_violates(lat, mu, w)


def test_conditions_zero_rank_and_zero_measure_failures():
    g = ground("xyz")
    lat = validate_lattice(g, [(0, 0), (0b011, 0), (0b111, 2)])
    mu = mu_from(g, [1, 1, 0])
    rep = check_conditions(lat, mu)
    assert not rep.c5a.passed
    assert rep.c5a.witness.subsets == (0b011,)
    assert not rep.c5b.passed
    assert rep.c5b.witness.element == 2
    assert _oracles.condition_witness_violates(lat, mu, rep.c5a.witness)
    assert _oracles.condition_witness_violates(lat, mu, rep.c5b.witness)


def test_conditions_monotonicity_failure():
    g = ground("xy")
    lat = validate_lattice(g, [(0, 2), (0b11, 1)])
    rep = check_conditions(lat, mu_from(g, [2, 2]))
    assert not rep.c2.passed
    w = rep.c2.witness
    assert (w.lhs, w.relation, w.rhs) == (Fraction(-1), ">=", Fraction(0))


def test_conditions_exchange_failure():
    # overlapping members whose meet forgets the shared element: the
    # correction term charges for b and the rank sum cannot cover it
    g = ground("abc")
    lat = validate_lattice(g, [(0, 0), (0b011, 1), (0b110, 1), (0b111, 2)])
    mu = mu_from(g, [1, 1, 1])
    rep = check_conditions(lat, mu)
    assert not rep.c3.passed
    w = rep.c3.witness
    assert set(w.subsets) == {0b011, 0b110}
    assert (w.lhs, w.relation, w.rhs) == (Fraction(2), ">=", Fraction(3))
    assert _oracles.condition_witness_violates(lat, mu, w)


def test_conditions_ground_mismatch():
    _, lat = chain_lattice()
    other = Measure(ground("ab"), [Fraction(1), Fraction(1)])
    with pytest.raises(GroundSetMismatch):
        check_conditions(lat, other)


def test_condition_witnesses_recompute_on_random_pairs():
    # stress the witness contract over mutated corpus pairs
    rng = random.Random(99)
    checked = 0
    for f, lat, mu in corpus.harvested()[:120]:
        if len(lat) < 2:
            continue
        move = rng.randrange(5)
        if move == 0:
            lat2, mu2 = corpus.shift_up(lat), mu
        elif move == 1:
            lat2, mu2 = corpus.scale_ranks(lat, Fraction(3)), mu
        elif move == 2:
            lat2, mu2 = lat, corpus.scale_measure(mu, Fraction(1, 3))
        elif move == 3:
            lat2, mu2 = lat, corpus.set_singleton(mu, rng.randrange(f.ground.n), 9)
        else:
            lat2, mu2 = corpus.scale_ranks(lat, Fraction(1, 2)), mu
        rep = check_conditions(lat2, mu2)
        for _, verdict in rep.named():
            if not verdict.passed:
                assert _oracles.condition_witness_violates(lat2, mu2, verdict.witness)
                checked += 1
    assert checked > 50


def test_normalize_pointed():
    g = ground("xy")
    lat = validate_lattice(g, [(0, 1), (0b11, 4)])
    fixed = normalize_pointed(lat)
    assert fixed.rank_of(0) == 0
    assert fixed.rank_of(0b11) == 3
    already = validate_lattice(g, [(0, 0), (0b11, 3)])
    assert normalize_pointed(already) is already


def test_normalize_pointed_keeps_relative_conditions():
    # shifting all ranks down moves only the bottom value, so the nested,
    # strict, and exchange checks are unchanged
    for f, lat, mu in corpus.harvested()[60:100]:
        shifted = corpus.shift_up(lat, Fraction(5, 2))
        rep = check_conditions(shifted, mu)
        assert not rep.c1.passed
        back = normalize_pointed(shifted)
        rep2 = check_conditions(back, mu)
        assert rep2.c1.passed
        assert rep.c2.passed == rep2.c2.passed
        assert rep.cstar.passed == rep2.cstar.passed
        assert rep.c3.passed == rep2.c3.passed


def test_bottom_measure_never_matters_for_nested_checks():
    # bumping the measure on bottom elements can only break the cap rule
    bumped = 0
    for f, lat, mu in corpus.harvested()[:150]:
        if lat.bottom == 0:
            continue
        bumped += 1
        index = next(i for i in range(f.ground.n) if lat.bottom >> i & 1)
        mu2 = corpus.set_singleton(mu, index, Fraction(100))
        rep = check_conditions(lat, mu2)
        assert rep.c2.passed and rep.cstar.passed and rep.c3.passed
        assert not rep.c4.passed
    assert bumped >= 5


def test_zero_bottom_measure_forced_when_conditions_hold():
    for f, lat, mu in corpus.harvested()[:150]:
        rep = check_conditions(lat, mu)
        if rep.c1.passed and rep.c4.passed:
            for i in range(f.ground.n):
                if lat.bottom >> i & 1:
                    assert mu.singleton[i] == 0


def test_strict_condition_implies_nested_and_positive_ranks():
    rng = random.Random(3)
    for f, lat, mu in corpus.harvested()[:150]:
        t = Fraction(rng.randrange(1, 5), rng.choice((1, 2)))
        rep = check_conditions(corpus.scale_ranks(lat, t), corpus.scale_measure(mu, t))
        if rep.cstar.passed and rep.c1.passed:
            assert rep.c2.passed
            assert rep.c5a.passed


def test_matroid_measure_strictness_implies_caps():
    # integer ranks with a zero-or-one measure: strictness forces the
    # cap and positivity conditions
    for f in corpus.matroid_corpus():
        lat, mu = cyclic_flats(f)
        rep = check_conditions(lat, mu)
        if rep.c1.passed and rep.cstar.passed and rep.c3.passed:
            assert rep.c4.passed and rep.c5a.passed and rep.c5b.passed


def test_exchange_witness_pairs_are_incomparable():
    # comparable pairs satisfy the exchange bound whenever the nested
    # bound holds, so a violation there must name an incomparable pair
    for f, lat, mu in corpus.harvested()[:150]:
        rep = check_conditions(lat, corpus.scale_measure(mu, Fraction(1, 2)))
        if not rep.c3.passed:
            z1, z2 = rep.c3.witness.subsets
            assert z1 & ~z2 and z2 & ~z1


def test_nested_scan_matches_per_condition_reference():
    # C2 and C* share one scan over nested pairs and read mu(Z2 - Z1) as
    # mu(Z2) - mu(Z1); C3 skips comparable pairs.  The reference scans every
    # ordered pair once per condition and every pair for C3, on the dense
    # measure table, and the whole report must agree, first witnesses included
    rng = random.Random(5)
    cases, failed, split = 0, collections.Counter(), 0

    def compare(lat2, mu2):
        nonlocal cases, split
        rep = check_conditions(lat2, mu2)
        assert rep == _oracles.check_conditions_reference(lat2, mu2)
        # equality alone cannot tell the int 0 from Fraction(0)
        for _, verdict in rep.named():
            if not verdict:
                assert type(verdict.witness.lhs) is type(verdict.witness.rhs) is Fraction
        cases += 1
        failed.update(name for name, verdict in rep.named() if not verdict)
        split += not rep.c2.passed and rep.c2.witness.subsets != rep.cstar.witness.subsets

    for f, lat, mu in corpus.harvested():
        ranks = list(lat.ranks)
        moved = rng.randrange(len(ranks))
        ranks[moved] = max(Fraction(0), ranks[moved] + rng.choice((1, -1, Fraction(1, 2))))
        redrawn = [Fraction(rng.randrange(4), rng.randrange(1, 3)) for _ in range(f.ground.n)]
        compare(lat, mu)
        compare(corpus.with_ranks(lat, ranks), mu)
        compare(lat, Measure(lat.ground, redrawn))
    for _ in range(400):
        n = rng.randint(2, 6)
        g = ground("abcdef"[:n])
        lat = corpus.random_family_lattice(rng, g, rng.randrange(1, 1 << n))
        compare(lat, Measure(g, [Fraction(rng.randrange(4), rng.randrange(1, 4)) for _ in range(n)]))
    assert cases > 1000
    assert failed["C2"] > 50 and failed["C*"] > failed["C2"]
    assert failed["C3"] > 50
    # some pairs fail C* at an earlier pair than C2
    assert split > 0

    # A distinct 40-digit prime denominator per rank and per mass, each
    # value within 1/p of a small one, so that p alone decides near-ties.
    # Up to five values the common denominator keeps the int form; past
    # that it outgrows the bound and the scans run on the Fractions.
    primes = corpus.large_primes(48)
    paths = collections.Counter()

    def near(values):
        ps = iter(rng.sample(primes, len(values)))
        return [v + Fraction(rng.choice((1, -1)) if v else 1, next(ps)) for v in values]

    for _ in range(300):
        n = rng.randint(1, 4)
        g = ground("abcd"[:n])
        lat = corpus.random_family_lattice(rng, g, rng.randrange(1, 1 << n))
        masses = near([Fraction(rng.randrange(3)) for _ in range(n)])
        lat = corpus.with_ranks(lat, near([Fraction(round(r)) for r in lat.ranks]))
        mu = Measure(g, masses)
        paths[_common_denominator(lat.ranks + mu.singleton)[0] is None] += 1
        compare(lat, mu)
    for f, lat, mu in corpus.harvested()[:60]:
        lat, mu = corpus.with_ranks(lat, near(lat.ranks)), Measure(f.ground, near(mu.singleton))
        paths[_common_denominator(lat.ranks + mu.singleton)[0] is None] += 1
        compare(lat, mu)
    assert paths[False] > 50 and paths[True] > 50
    print(
        f"condition scan parity: {cases} pairs, failures {dict(failed)}, "
        f"split witnesses {split}, past the int bound {paths[True]} of {sum(paths.values())}"
    )


def test_paving_lattices_match_the_reference_report():
    # {}, E and 200 random 6-subsets of 12 elements ranked 11/2, E ranked 6,
    # unit measure: every meet is {} and every join is E, so C3 reads
    # 11 >= 6 + |Zi & Zj| and holds.  A member lowered to 5 fails C3 at the
    # first pair that holds it and shares five elements
    g = ground([f"e{i:02d}" for i in range(12)])
    rng = random.Random(12)
    subsets = set()
    while len(subsets) < 200:
        subsets.add(sum(1 << i for i in rng.sample(range(12), 6)))
    family = [(0, 0), (g.full, 6)] + [(h, Fraction(11, 2)) for h in sorted(subsets)]
    mu = Measure(g, [1] * 12)
    lat = validate_lattice(g, family)
    rep = check_conditions(lat, mu)
    assert rep.all_pass() and rep == _oracles.check_conditions_reference(lat, mu)
    for at in (2, 2 + rng.randrange(200)):
        lowered = family.copy()
        lowered[at] = (family[at][0], 5)
        lat = validate_lattice(g, lowered)
        rep = check_conditions(lat, mu)
        assert rep == _oracles.check_conditions_reference(lat, mu)
        assert [name for name, verdict in rep.named() if not verdict] == ["C3"]
        z1, z2 = rep.c3.witness.subsets
        assert family[at][0] in (z1, z2) and (z1 & z2).bit_count() == 5


def _order_matches_pair_scan(g, elements) -> tuple[str, str | None]:
    """validate_lattice and the constructor against the per-pair member
    scan: the same first NotALattice, or the same meet, join and DOT text.
    The hulls must match their definition on every mask, and the
    certificate must hold exactly for the lattices.  Returns which check
    the size rule picks, the certificate or the pair pass, and the failure
    reason, None for a lattice."""
    members = sorted(dict(elements), key=lambda m: (m.bit_count(), m))
    inner, outer = lattice._cube_hulls(g.n, members)
    assert (list(inner), list(outer)) == _oracles.cube_hulls_reference(g.n, members)
    certified = lattice._certified(set(members), inner, outer)
    k = len(members)
    path = "certificate" if 1 << g.n < k * (k - 1) // 2 else "pair pass"
    try:
        meet, join = _oracles.pair_scan_reference(g, elements)
    except NotALattice as expected:
        assert not certified
        for build in (validate_lattice, RankedLattice):
            with pytest.raises(NotALattice) as info:
                build(g, elements)
            got = info.value
            assert (got.first, got.second, got.reason, str(got)) == (
                expected.first, expected.second, expected.reason, str(expected)
            )
        # the same family built unchecked refuses the bound asked for
        lat = RankedLattice._from_family(g, elements)
        bound = lat.meet if got.reason == "no unique lower bound" else lat.join
        with pytest.raises(NotALattice) as info:
            bound(got.first, got.second)
        assert str(info.value) == str(expected)
        return path, got.reason
    assert certified
    lat = validate_lattice(g, elements)
    for i, a in enumerate(members):
        for j, b in enumerate(members):
            assert lat.meet(a, b) == members[meet[i][j]]
            assert lat.join(a, b) == members[join[i][j]]
    assert lattice_dot(lat) == _oracles.dot_reference(lat)
    # member lookup by bisection, on every mask of the ground: the first
    # and last member, and non-members between members of equal size
    for built in (lat, RankedLattice._from_family(g, elements)):
        rank = dict(built.items())
        for m in g.subsets():
            assert (m in built) == (m in rank)
            if m in rank:
                assert built.rank_of(m) == rank[m]
            else:
                with pytest.raises(ElementNotInLattice):
                    built.rank_of(m)
    return path, None


def test_order_bitsets_match_pair_scan_on_random_families():
    # arbitrary families, some widened by their overall intersection and
    # union: about half of them are not lattices, and the member counts put
    # lattices and both refusals on each side of the size rule
    rng = random.Random(2026)
    outcomes = collections.Counter()
    for _ in range(4000):
        n = rng.randint(3, 6)
        masks = set(rng.sample(range(1 << n), rng.randint(2, min(12, 1 << n))))
        if rng.random() < 0.4:
            low, high = (1 << n) - 1, 0
            for m in masks:
                low &= m
                high |= m
            masks |= {low, high}
        g = ground("abcdef"[:n])
        elements = [(m, Fraction(rng.randrange(4), rng.randrange(1, 3))) for m in masks]
        outcomes[_order_matches_pair_scan(g, elements)] += 1
    reasons = collections.Counter()
    for (_, reason), times in outcomes.items():
        reasons[reason] += times
    assert 1600 < reasons[None] < 2400
    assert reasons["no unique lower bound"] > 500
    assert reasons["no unique upper bound"] > 300
    for path in ("certificate", "pair pass"):
        for reason in (None, "no unique lower bound", "no unique upper bound"):
            assert outcomes[path, reason] > 150, (path, reason)
    print(f"order parity on 4000 random families: {dict(outcomes)}")


def test_order_bitsets_match_pair_scan_on_corpus_and_block_lattices():
    lattices = [lat for _, lat, _ in corpus.harvested()]
    lattices += [helgason_lattice(f)[0] for f in corpus.integer_corpus()]
    for lat in lattices:
        assert _order_matches_pair_scan(lat.ground, list(lat.items()))[1] is None
    assert len(lattices) > 600


def test_lattices_the_library_builds_pass_the_lattice_law_check(monkeypatch):
    # cyclic_flats, helgason_lattice, infiltrate_via_lattices and
    # normalize_pointed build their lattices through the unchecked
    # _from_family.  The checking constructor must accept each family and
    # give back the same lattice, and the containment order of its members
    # must be the relation the reference scan finds
    built = collections.Counter()
    real_convolve_lattices = constructions.convolve_lattices

    def capture(first, second):
        check(first, "infiltration")
        check(second, "infiltration")
        return real_convolve_lattices(first, second)

    def check(lat, kind):
        again = validate_lattice(lat.ground, lat.items())
        assert (again.members, again.ranks) == (lat.members, lat.ranks)
        assert lattice._containment(lat.members) == _oracles.order_bitsets_reference(lat.members)
        built[kind] += 1

    for _, lat, _ in corpus.harvested():
        check(lat, "cyclic flats")
        check(normalize_pointed(corpus.shift_up(lat, Fraction(3, 2))), "pointed")
    for n in range(1, 11):
        for seed in range(4):
            check(cyclic_flats(corpus.rational_sum_table(seed, n))[0], "cyclic flats")
    for f in corpus.integer_corpus():
        check(helgason_lattice(f)[0], "block")
    monkeypatch.setattr(constructions, "convolve_lattices", capture)
    for spec in corpus.infiltration_specs():
        infiltrate_via_lattices(spec)
    assert built["cyclic flats"] == len(corpus.harvested()) + 40
    assert built["pointed"] == len(corpus.harvested())
    assert built["block"] == len(corpus.integer_corpus())
    assert built["infiltration"] == 2 * len(corpus.infiltration_specs())
    print(f"library-built lattices accepted by validate_lattice: {dict(built)}")


def test_lattices_the_library_convolves_or_writes_never_build_an_order(monkeypatch, tmp_path):
    # the constructions, the round trip and the lattice writer read members
    # and ranks alone, so none of them may pay for the containment scan or
    # the subset-cube hulls
    def refuse(arg):
        raise AssertionError(f"order or hulls built for {len(arg)} members")

    monkeypatch.setattr(lattice, "_containment", refuse)
    monkeypatch.setattr(RankedLattice, "_hulls", refuse)
    for f in corpus.integer_corpus():
        helgason_expand(f)
    for spec in corpus.infiltration_specs():
        infiltrate_via_lattices(spec)
    for n in range(1, 11):
        f = corpus.rational_sum_table(n, n)
        assert reconstruction_failure(f) is None
        write_lattice(cyclic_flats(f)[0], tmp_path / f"l{n}.json")


def test_validation_conditions_and_covers_build_the_order_once(monkeypatch):
    orders = []
    build = lattice._containment

    def record(members):
        orders.append(build(members))
        return orders[-1]

    monkeypatch.setattr(lattice, "_containment", record)
    _, built, mu = max(corpus.harvested(), key=lambda entry: len(entry[1]))
    lat = validate_lattice(built.ground, built.items())
    # the constructor checks the lattice laws on the hulls, without the order
    assert not orders
    assert check_conditions(lat, mu).theorem_conditions_pass()
    assert len(orders) == 1
    # with the zero measure C* fails at the first nested pair, so C2 is
    # scanned too, on the order C* read
    report = check_conditions(lat, Measure(mu.ground, [0] * mu.ground.n))
    assert not report.cstar and not report.c2
    assert len(orders) == 2
    assert lat.covers()
    assert len(orders) == 3
    assert orders[0] == orders[1] == orders[2] == _oracles.order_bitsets_reference(lat.members)


def test_normalize_pointed_keeps_a_rank_below_the_bottom():
    # the shift checks no ranks: a member ranked below the bottom comes out
    # negative, C2 reports it, and nothing raises
    g = ground("xy")
    lat = validate_lattice(g, [(0, 2), (0b01, 1), (0b11, 3)])
    shifted = normalize_pointed(lat)
    assert shifted.members == lat.members and shifted.ranks == (0, -1, 1)
    assert lattice._containment(shifted.members) == _oracles.order_bitsets_reference(lat.members)
    rep = check_conditions(shifted, Measure(g, [1, 1]))
    assert rep.c1.passed and not rep.c2.passed
    assert rep.c2.witness.subsets == (0, 0b01)


def test_boolean_lattice_on_ten_elements():
    g = ground("abcdefghij")
    lat = validate_lattice(g, [(m, m.bit_count()) for m in range(1 << 10)])
    assert len(lat) == 1024
    rng = random.Random(10)
    for _ in range(2000):
        a, b = rng.randrange(1024), rng.randrange(1024)
        assert lat.meet(a, b) == a & b
        assert lat.join(a, b) == a | b
    covers = lat.covers()
    assert len(covers) == 10 * 512
    assert all(low & ~high == 0 and (high ^ low).bit_count() == 1 for low, high in covers)


def test_conditions_at_twenty_elements_read_point_masses(monkeypatch, tmp_path, capsys):
    # a measure is its point masses: neither check_conditions nor the
    # axioms command builds the 2^20-entry table of a 20-element ground
    from polyflats.cli import main
    from polyflats.files import write_lattice, write_measure

    def refuse(self):
        raise AssertionError("Measure.table called")

    monkeypatch.setattr(Measure, "table", refuse)
    g = ground([f"e{i:02d}" for i in range(20)])
    lat = validate_lattice(
        g,
        [(0, 0), (0b010, 1), (0b011, Fraction(3, 2)), (0b110, Fraction(3, 2)),
         (0b111, 2), (g.full, 9)],
    )
    mu = Measure(g, [1, 1, 1] + [Fraction(1, 2)] * 17)
    lines = check_conditions(lat, mu).lines(g)
    assert lines == [
        "C1   pass",
        "C2   pass",
        "C*   FAIL at {}, {e01}: needs 1 < 1",
        "C3   pass",
        "C4   pass",
        "C5a  pass",
        "C5b  pass",
    ]
    write_lattice(lat, tmp_path / "lat.json")
    write_measure(mu, tmp_path / "mu.json")
    assert main(["axioms", str(tmp_path / "lat.json"), str(tmp_path / "mu.json")]) == 1
    assert capsys.readouterr().out == "\n".join(lines) + "\n"
