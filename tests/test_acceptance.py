"""Acceptance gate: eleven end-to-end criteria over the full corpus.

Every comparison below is exact rational equality; there are no
tolerances anywhere.  Each test prints one summary line.
"""

import collections
import random
from fractions import Fraction

from polyflats import (
    GroundSet,
    InfiltrationSpec,
    Measure,
    SetFunction,
    check_conditions,
    check_polymatroid,
    convolve,
    cyclic_flats,
    helgason_expand,
    helgason_lattice,
    infiltrate,
    infiltrate_via_lattices,
    loops,
    reconstruction_failure,
    uniform_matroid,
    validate_lattice,
    verify_main_theorem,
)

import _oracles
import corpus


def test_criterion_01_extraction_satisfies_all_conditions(harvested_pairs):
    assert len(harvested_pairs) >= 500
    for f, lattice, mu in harvested_pairs:
        report = check_conditions(lattice, mu)
        assert report.all_pass(), (
            f"conditions fail for {f.ground.names} {f.values}: "
            f"{[n for n, v in report.named() if not v.passed]}"
        )
    print(f"criterion 01 (extracted pairs meet all conditions): PASS "
          f"({len(harvested_pairs)} polymatroids)")


def test_criterion_02_condition_passing_pairs_convolve_back(harvested_pairs):
    extra = []
    g2 = GroundSet(("x", "y"))
    extra.append(
        (
            validate_lattice(g2, [(0, 0), (0b11, 3)]),
            Measure(g2, [Fraction(2), Fraction(2)]),
        )
    )
    extra.append(
        (
            validate_lattice(g2, [(0, 0), (0b11, Fraction(3, 2))]),
            Measure(g2, [Fraction(1), Fraction(1)]),
        )
    )
    pairs = [(lat, mu) for _, lat, mu in harvested_pairs] + extra
    assert len(pairs) >= 200
    for lattice, mu in pairs:
        report = verify_main_theorem(lattice, mu)
        assert report.conditions.theorem_conditions_pass()
        assert report.round_trip_ok, [
            m.describe(lattice.ground) for m in report.mismatches
        ]
    print(f"criterion 02 (condition-passing pairs round trip): PASS "
          f"({len(pairs)} pairs)")


def test_criterion_03_reconstruction_identity(all_functions):
    for f in all_functions:
        assert reconstruction_failure(f) is None, f"reconstruction differs for {f.values}"
    print(f"criterion 03 (reconstruction identity): PASS "
          f"({len(all_functions)} polymatroids)")


def test_criterion_04_exchange_alone_preserves_the_axioms(harvested_pairs):
    qualifying = 0
    broken_conditions = set()
    candidates = []
    for _, lattice, mu in harvested_pairs[:140]:
        candidates.append((corpus.shift_up(lattice), mu))
        candidates.append((lattice, corpus.scale_measure(mu, Fraction(1, 3))))
        off_bottom = [
            i for i in range(lattice.ground.n) if not lattice.bottom >> i & 1
        ]
        if off_bottom:
            candidates.append((lattice, corpus.set_singleton(mu, off_bottom[0], 0)))
        on_bottom = [i for i in range(lattice.ground.n) if lattice.bottom >> i & 1]
        if on_bottom:
            candidates.append((lattice, corpus.set_singleton(mu, on_bottom[0], 50)))
    for seed in range(40):
        f = corpus.full_corpus()[200 + seed]
        candidates.append(corpus.closed_random_lattice(seed, f))

    for lattice, mu in candidates:
        report = check_conditions(lattice, mu)
        if not report.c3.passed or report.theorem_conditions_pass():
            continue
        qualifying += 1
        broken_conditions |= {
            name
            for name, verdict in report.named()
            if not verdict.passed
        }
        r = convolve(lattice, mu)
        assert check_polymatroid(r).is_polymatroid, (
            f"exchange-only pair lost the axioms: {lattice.ground.names}"
        )
    assert qualifying >= 100
    assert {"C1", "C*", "C4", "C5b"} <= broken_conditions
    print(f"criterion 04 (exchange alone keeps outputs polymatroid): PASS "
          f"({qualifying} pairs, broken: {sorted(broken_conditions)})")


def test_criterion_05_supporting_fact_suite(harvested_pairs, integer_functions):
    streams = [(lat, mu) for _, lat, mu in harvested_pairs[:120]]
    for _, lat, mu in harvested_pairs[:60]:
        streams.append((corpus.shift_up(lat), mu))
        streams.append((corpus.scale_ranks(lat, Fraction(3)), mu))
        streams.append((lat, corpus.scale_measure(mu, Fraction(1, 2))))
    for seed in range(30):
        f = corpus.full_corpus()[300 + seed]
        streams.append(corpus.closed_random_lattice(seed, f))
    for f in integer_functions[:30]:
        lattice, mu, _ = helgason_lattice(f)
        streams.append((lattice, mu))

    applied_counts: dict[str, int] = {}
    for lattice, mu in streams:
        applied, failed = _oracles.structure_properties(lattice, mu)
        assert not failed, f"{sorted(failed)} failed on {lattice.ground.names}"
        for name in applied:
            applied_counts[name] = applied_counts.get(name, 0) + 1
    expected = {
        "argmin-step",
        "bottom-zero",
        "measure-floor",
        "positive-off-bottom",
        "join-bound",
        "join-bound-strict",
        "rank-agreement",
        "polymatroid-out",
        "no-new-cyclic-flats",
        "members-are-cyclic-flats",
    }
    assert expected <= set(applied_counts)
    assert all(applied_counts[name] >= 20 for name in expected), applied_counts
    print(f"criterion 05 (supporting facts hold on {len(streams)} pairs): PASS "
          f"(each fact exercised >= 20 times)")


def test_criterion_06_block_expansion_factors(integer_functions):
    assert len(integer_functions) >= 50
    boundary_failures = 0
    for f in integer_functions:
        factor, emap = helgason_expand(f)
        assert check_polymatroid(factor).is_matroid
        for a in f.ground.subsets():
            assert factor.values[_oracles.block_union(emap, a)] == f.values[a]
        lattice, mu, _ = helgason_lattice(f)
        report = check_conditions(lattice, mu)
        assert report.c1.passed and report.c2.passed
        assert report.c3.passed and report.c4.passed
        if not report.cstar.passed:
            boundary_failures += 1
    assert boundary_failures >= 1
    print(f"criterion 06 (block expansion factors through a matroid): PASS "
          f"({len(integer_functions)} integer polymatroids)")


def test_criterion_07_infiltration_routes_agree(infiltration_pairs):
    assert len(infiltration_pairs) >= 50
    for spec in infiltration_pairs:
        direct = infiltrate(spec)
        assert check_polymatroid(direct).is_polymatroid
        assert infiltrate_via_lattices(spec) == direct
        pivot_bit = spec.host.ground.singleton(spec.pivot)
        g = direct.ground
        for a in spec.host.ground.subsets():
            if a & pivot_bit:
                continue
            image = g.subset(spec.host.ground.labels(a))
            assert direct.values[image] == spec.host.values[a]
        for b in spec.guest.ground.subsets():
            image = g.subset(spec.guest.ground.labels(b))
            assert direct.values[image] == spec.guest.values[b]
    print(f"criterion 07 (infiltration by table and by lattices): PASS "
          f"({len(infiltration_pairs)} host/guest pairs)")


def test_criterion_08_matroid_specialization():
    matroids = corpus.matroid_corpus()
    assert len(matroids) >= 30
    for f in matroids:
        lattice, mu = cyclic_flats(f)
        assert lattice.bottom == loops(f)
        for i in range(f.ground.n):
            expected = Fraction(0) if lattice.bottom >> i & 1 else Fraction(1)
            assert mu.singleton[i] == expected
        assert all(r.denominator == 1 for r in lattice.ranks)
        report = check_conditions(lattice, mu)
        assert report.c1.passed and report.cstar.passed and report.c3.passed
        assert report.c4.passed and report.c5a.passed and report.c5b.passed
    print(f"criterion 08 (matroid pairs use the 0/1 measure): PASS "
          f"({len(matroids)} matroids)")


def test_criterion_09_integrality_transfers_both_ways(harvested_pairs):
    integer_seen = 0
    fractional_seen = 0
    for _, lattice, mu in harvested_pairs:
        for t in (Fraction(1), Fraction(1, 2), Fraction(3)):
            lat2 = corpus.scale_ranks(lattice, t)
            mu2 = corpus.scale_measure(mu, t)
            assert check_conditions(lat2, mu2).all_pass()
            r = convolve(lat2, mu2)
            input_integer = all(v.denominator == 1 for v in lat2.ranks) and (
                mu2.is_integer_valued()
            )
            assert r.is_integer_valued() == input_integer
            if input_integer:
                integer_seen += 1
            else:
                fractional_seen += 1
    assert integer_seen >= 50 and fractional_seen >= 50
    print(f"criterion 09 (integer outputs iff integer inputs): PASS "
          f"({integer_seen} integer, {fractional_seen} fractional)")


def test_criterion_10_documented_failure_witnesses():
    g = GroundSet(("x", "y"))
    mu22 = Measure(g, [Fraction(2), Fraction(2)])

    # rank jump exactly equal to the gap measure: strictness fails and
    # the top member is not recovered, though the singleton values are
    boundary = validate_lattice(g, [(0, 0), (0b11, 4)])
    report = verify_main_theorem(boundary, mu22)
    w = report.conditions.cstar.witness
    assert (w.subsets, w.lhs, w.relation, w.rhs) == ((0, 0b11), 4, "<", 4)
    assert report.is_polymatroid
    assert not report.lattice_recovered
    assert report.measure_recovered
    assert [m.kind for m in report.mismatches] == ["missing_cyclic_flat"]
    assert not report.round_trip_ok

    # bottom ranked above zero: the lattice itself survives the round
    # trip but every singleton value absorbs the offset
    lifted = validate_lattice(g, [(0, 1), (0b11, 3)])
    report = verify_main_theorem(lifted, mu22)
    assert report.conditions.c1.witness.lhs == 1
    assert report.is_polymatroid
    assert report.lattice_recovered
    assert not report.measure_recovered
    kinds = sorted(m.kind for m in report.mismatches)
    assert kinds == ["singleton_differs", "singleton_differs"]
    assert convolve(lifted, mu22).values == (1, 3, 3, 3)
    assert not report.round_trip_ok

    # measure above the member rank: the convolution caps the element
    # at the member rank, so the input measure cannot come back
    capped = validate_lattice(g, [(0, 0), (0b11, 3)])
    mu52 = Measure(g, [Fraction(5), Fraction(2)])
    report = verify_main_theorem(capped, mu52)
    w = report.conditions.c4.witness
    assert (w.subsets, w.element, w.lhs, w.relation, w.rhs) == ((0b11,), 0, 5, "<=", 3)
    assert _oracles.convolution_singleton_profile(capped, mu52) == {
        "x": Fraction(3),
        "y": Fraction(2),
    }
    assert report.is_polymatroid
    assert report.lattice_recovered
    assert not report.measure_recovered
    mismatch = report.mismatches[0]
    assert mismatch.kind == "singleton_differs"
    assert (mismatch.element, mismatch.expected, mismatch.actual) == (0, 5, 3)
    assert not report.round_trip_ok

    print("criterion 10 (documented failure witnesses): PASS (3 hand-built pairs)")


def test_criterion_11_recovered_pairs_meet_the_conditions():
    # The converse of criterion 02: a pair that the round trip recovers
    # (polymatroid, lattice and measure) passes C*, C3, C4, C5a and C5b.
    # C1 is left out because check_polymatroid allows f(empty) > 0, and a
    # recovered pair with a positive bottom rank fails C1 alone.  Pairs are
    # the cyclic flats of polymatroid convolutions of random families:
    # random (lattice, measure) pairs are almost never recovered.
    rng = random.Random(11)
    recovered, failed = 0, collections.Counter()
    for _ in range(2000):
        n = rng.randint(1, 5)
        g = GroundSet(tuple("abcde"[:n]))
        family = corpus.random_family_lattice(rng, g, rng.randrange(1 << n))
        mu = Measure(g, [Fraction(rng.randrange(5), rng.choice((1, 2, 3))) for _ in range(n)])
        f = convolve(family, mu)
        if not check_polymatroid(f).is_polymatroid:
            continue
        report = verify_main_theorem(*cyclic_flats(f))
        if not (report.is_polymatroid and report.lattice_recovered and report.measure_recovered):
            continue
        recovered += 1
        c = report.conditions
        assert c.cstar and c.c3 and c.c4 and c.c5a and c.c5b, report
        failed.update(name for name, verdict in c.named() if not verdict)
    assert recovered > 700
    print(f"criterion 11 (recovered pairs meet the conditions): PASS "
          f"({recovered} recovered pairs, failures {dict(failed)})")
