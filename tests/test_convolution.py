"""Convolution tables, two-lattice covers, and the round-trip verifier."""

import random
from fractions import Fraction

import pytest

from polyflats import (
    GroundSet,
    GroundSetMismatch,
    Measure,
    SetFunction,
    check_conditions,
    check_polymatroid,
    convolve,
    convolve_lattices,
    cyclic_flats,
    validate_lattice,
    verify_main_theorem,
)
from polyflats.model import _common_denominator

import _oracles
import corpus


def ground(labels):
    return GroundSet(tuple(labels))


def mu_from(g, values):
    return Measure(g, [Fraction(v) for v in values])


def test_convolve_chain():
    g = ground("xy")
    lat = validate_lattice(g, [(0, 0), (0b11, 3)])
    r = convolve(lat, mu_from(g, [2, 2]))
    assert r.values == (0, 2, 2, 3)


def test_convolve_trivial_lattice_gives_the_measure():
    g = ground("abc")
    lat = validate_lattice(g, [(0, 0)])
    mu = mu_from(g, [1, "1/2", 3])
    r = convolve(lat, mu)
    assert all(r.values[m] == mu(m) for m in g.subsets())


def test_convolve_single_nonempty_member():
    # nothing smaller than the only member exists, so its rank floors all
    g = ground("xy")
    lat = validate_lattice(g, [(0b11, 2)])
    r = convolve(lat, mu_from(g, [1, 1]))
    assert r.values == (2, 2, 2, 2)


def test_convolve_ground_mismatch():
    g = ground("xy")
    lat = validate_lattice(g, [(0, 0)])
    with pytest.raises(GroundSetMismatch):
        convolve(lat, mu_from(ground("ab"), [1, 1]))


def test_argmin_prefers_smallest_member():
    g = ground("xy")
    lat = validate_lattice(g, [(0, 0), (0b01, 1), (0b10, 1), (0b11, 2)])
    mu = mu_from(g, [1, 1])
    assert _oracles.convolution_argmin(lat, mu, 0b01) == 0
    assert _oracles.convolution_argmin(lat, mu, 0b11) == 0


def test_argmin_achieves_the_minimum(all_functions):
    for f in all_functions[200:240]:
        lat, mu = cyclic_flats(f)
        table = mu.table()
        r = convolve(lat, mu)
        for m in f.ground.subsets():
            z = _oracles.convolution_argmin(lat, mu, m)
            assert lat.rank_of(z) + table[m & ~z] == r.values[m]


def test_singleton_profile_reports_capped_values():
    g = ground("xy")
    lat = validate_lattice(g, [(0, 0), (0b11, 3)])
    assert _oracles.convolution_singleton_profile(lat, mu_from(g, [5, 2])) == {
        "x": Fraction(3),
        "y": Fraction(2),
    }


def test_two_lattice_convolution_smallest_case():
    g = ground("x")
    lat = validate_lattice(g, [(0, 0), (0b1, 1)])
    r = convolve_lattices(lat, lat)
    assert r.ground.names == ("x",)
    assert r.values == (0, 1)


def test_two_lattice_convolution_restricts_to_covered_ground():
    g = ground("xy")
    lat = validate_lattice(g, [(0, 0), (0b01, 1)])
    r = convolve_lattices(lat, lat)
    assert r.ground.names == ("x",)
    assert r.values == (0, 1)


def test_two_lattice_ground_mismatch():
    a = validate_lattice(ground("xy"), [(0, 0)])
    b = validate_lattice(ground("ab"), [(0, 0)])
    with pytest.raises(GroundSetMismatch):
        convolve_lattices(a, b)


def test_two_lattice_matches_single_with_additive_second(all_functions):
    # a full powerset ranked additively plays the role of the measure
    for f in all_functions[100:130]:
        if f.ground.n > 4:
            continue
        lat, mu = cyclic_flats(f)
        table = mu.table()
        additive = validate_lattice(
            f.ground, [(m, table[m]) for m in f.ground.subsets()]
        )
        direct = convolve(lat, mu)
        paired = convolve_lattices(lat, additive)
        assert paired.ground.names == f.ground.names
        assert paired.values == direct.values


def _random_measure(rng, g):
    return Measure(
        g, [Fraction(rng.randrange(0, 5), rng.choice(corpus.KERNEL_DENOMINATORS)) for _ in g.names]
    )


def test_convolve_matches_member_scan_reference(harvested_pairs):
    for _, lat, mu in harvested_pairs:
        assert convolve(lat, mu) == _oracles.convolve_reference(lat, mu)
    rng = random.Random(4104)
    partial_tops = zero_ranks = 0
    for _ in range(400):
        g = ground("abcdef"[: rng.randint(0, 6)])
        top = g.full if rng.random() < 0.3 else rng.randrange(g.full + 1)
        lat = corpus.random_family_lattice(rng, g, top)
        mu = _random_measure(rng, g)
        assert convolve(lat, mu) == _oracles.convolve_reference(lat, mu)
        partial_tops += lat.top != g.full
        zero_ranks += any(r == 0 for r in lat.ranks[1:])
    assert partial_tops > 100 and zero_ranks > 50


def test_convolve_lattices_matches_pair_scan_reference(harvested_pairs):
    rng = random.Random(4105)
    partial_cover = 0
    for _, lat, _ in harvested_pairs[::4]:
        other = corpus.random_family_lattice(rng, lat.ground, rng.randrange(lat.ground.full + 1))
        for first, second in ((lat, other), (other, lat)):
            got = convolve_lattices(first, second)
            assert got == _oracles.convolve_lattices_reference(first, second)
    for _ in range(300):
        g = ground("abcdef"[: rng.randint(1, 6)])
        first = corpus.random_family_lattice(rng, g, rng.randrange(g.full + 1))
        second = corpus.random_family_lattice(rng, g, rng.randrange(g.full + 1))
        got = convolve_lattices(first, second)
        assert got == _oracles.convolve_lattices_reference(first, second)
        partial_cover += first.top | second.top != g.full
    assert partial_cover > 100


def test_convolutions_match_references_past_the_int_bound():
    # ranks |Z| + 1/p with a prime p per member: the lcm is too long for the
    # int form on seven elements and short enough on four
    primes = corpus.distinct_primes(128)
    for labels, past_bound in (("abcd", False), ("abcdefg", True)):
        g = ground(labels)
        lat = validate_lattice(g, [(m, m.bit_count() + Fraction(1, primes[m])) for m in g.subsets()])
        mu = Measure(g, [Fraction(i % 3, 2) for i in range(g.n)])
        assert (_common_denominator(lat.ranks + mu.singleton)[0] is None) == past_bound
        assert convolve(lat, mu) == _oracles.convolve_reference(lat, mu)
        half = validate_lattice(g, [(m, r) for m, r in lat.items() if m & 1 == 0 or m == g.full])
        odd = validate_lattice(g, [(m, r) for m, r in lat.items() if m & 0b10 or m == 0])
        assert (_common_denominator(half.ranks + odd.ranks)[0] is None) == past_bound
        assert convolve_lattices(half, odd) == _oracles.convolve_lattices_reference(half, odd)


def test_convolve_on_the_boolean_lattice_of_ten_elements():
    g = ground("abcdefghij")
    lat = validate_lattice(g, [(m, Fraction(m.bit_count(), 2)) for m in g.subsets()])
    r = convolve(lat, Measure(g, [Fraction(1, 3)] * 10))
    assert r.values == tuple(Fraction(a.bit_count(), 3) for a in g.subsets())


def test_convolve_lattices_at_ten_elements():
    rng = random.Random(29)
    g = ground("abcdefghij")
    first = corpus.random_family_lattice(rng, g, 0b0111111111)
    second = corpus.random_family_lattice(rng, g, 0b1111110101)
    assert len(first) * len(second) >= 400
    got = convolve_lattices(first, second)
    assert got.ground == g
    assert got == _oracles.convolve_lattices_reference(first, second)


def test_verify_round_trip_on_good_pair():
    g = ground("xy")
    lat = validate_lattice(g, [(0, 0), (0b11, 3)])
    report = verify_main_theorem(lat, mu_from(g, [2, 2]))
    assert report.conditions.all_pass()
    assert report.is_polymatroid
    assert report.lattice_recovered and report.measure_recovered
    assert report.round_trip_ok
    assert report.mismatches == ()
    assert report.outside_top == ()


def test_verify_reports_member_lost_at_strictness_boundary():
    # the rank jump equals the measure of the gap, so the top member
    # dissolves into the additive part and is not recovered
    g = ground("xy")
    lat = validate_lattice(g, [(0, 0), (0b11, 4)])
    report = verify_main_theorem(lat, mu_from(g, [2, 2]))
    assert not report.conditions.cstar.passed
    assert report.is_polymatroid
    assert not report.lattice_recovered
    assert report.measure_recovered
    assert [m.kind for m in report.mismatches] == ["missing_cyclic_flat"]
    assert report.mismatches[0].subset == 0b11
    assert not report.round_trip_ok


def test_verify_reports_elements_outside_top():
    g = ground("xyz")
    lat = validate_lattice(g, [(0, 0), (0b011, 3)])
    report = verify_main_theorem(lat, mu_from(g, [2, 2, 1]))
    assert report.outside_top == ("z",)
    assert report.round_trip_ok


def test_verify_reports_non_polymatroid_output():
    g = ground("abc")
    lat = validate_lattice(g, [(0, 0), (0b011, 1), (0b110, 1), (0b111, 2)])
    report = verify_main_theorem(lat, mu_from(g, [1, 1, 1]))
    assert not report.conditions.c3.passed
    assert not report.is_polymatroid
    assert [m.kind for m in report.mismatches] == ["not_polymatroid"]
    assert not report.round_trip_ok


@pytest.mark.parametrize(
    "labels, members, weights, described",
    [
        (
            "abc",
            [("", "3"), ("ac", "5/2"), ("bc", "5/2"), ("abc", "3")],
            [2, 4, "1/2"],
            ["convolution output fails the polymatroid axioms"],
        ),
        (
            "abcd",
            [("", "3"), ("abd", "6"), ("abcd", "5")],
            [1, 1, "1/2", 4],
            [
                "{a,b,d} is not a cyclic flat of the output",
                "{a} is a cyclic flat of the output but not a member",
                "{b} is a cyclic flat of the output but not a member",
                "{c} is a cyclic flat of the output but not a member",
                "{a,c} is a cyclic flat of the output but not a member",
                "{b,c} is a cyclic flat of the output but not a member",
                "element a has output rank 4, expected 1",
                "element b has output rank 4, expected 1",
                "element c has output rank 7/2, expected 1/2",
                "element d has output rank 5, expected 4",
            ],
        ),
        (
            "abcd",
            [("", "1"), ("d", "5"), ("abd", "3"), ("acd", "2"), ("bcd", "1"), ("abcd", "5/2")],
            [0, "3/2", 1, "3/2"],
            [
                "{} is not a cyclic flat of the output",
                "{d} is not a cyclic flat of the output",
                "{a,b,d} is not a cyclic flat of the output",
                "{a,c,d} is not a cyclic flat of the output",
                "{b,c,d} is not a cyclic flat of the output",
                "{a,b,c,d} has output rank 1, member rank 5/2",
                "element a has output rank 1, expected 0",
                "element b has output rank 1, expected 3/2",
                "element d has output rank 1, expected 3/2",
            ],
        ),
    ],
    ids=["not_polymatroid", "unexpected_cyclic_flat", "rank_differs"],
)
def test_verify_describes_every_mismatch_kind(labels, members, weights, described):
    g = ground(labels)
    lat = validate_lattice(g, [(g.subset(s), Fraction(r)) for s, r in members])
    report = verify_main_theorem(lat, mu_from(g, weights))
    assert [m.describe(g) for m in report.mismatches] == described
    assert not report.round_trip_ok


def test_verify_recovers_every_harvested_pair(harvested_pairs):
    for _, lat, mu in harvested_pairs[:80]:
        report = verify_main_theorem(lat, mu)
        assert report.conditions.all_pass()
        assert report.round_trip_ok


def test_exchange_alone_keeps_the_output_polymatroid():
    # random union-and-intersection closed families ranked by a
    # polymatroid inherit the exchange condition and nothing else
    produced = 0
    for seed in range(40):
        f = corpus.full_corpus()[150 + seed]
        lat, mu = corpus.closed_random_lattice(seed, f)
        rep = check_conditions(lat, mu)
        assert rep.c3.passed
        r = convolve(lat, mu)
        assert check_polymatroid(r).is_polymatroid
        if not rep.all_pass():
            produced += 1
    assert produced > 10


def test_structure_properties_on_harvested_pairs(harvested_pairs):
    for _, lat, mu in harvested_pairs[:50]:
        applied, failed = _oracles.structure_properties(lat, mu)
        assert not failed
        assert "polymatroid-out" in applied
        assert "rank-agreement" in applied
        assert "members-are-cyclic-flats" in applied


def test_structure_properties_survive_mutations(harvested_pairs):
    rng = random.Random(17)
    seen = set()
    for f, lat, mu in harvested_pairs[:60]:
        if len(lat) < 2:
            continue
        move = rng.randrange(4)
        if move == 0:
            lat2, mu2 = corpus.shift_up(lat), mu
        elif move == 1:
            lat2, mu2 = corpus.scale_ranks(lat, Fraction(3)), mu
        elif move == 2:
            lat2, mu2 = lat, corpus.scale_measure(mu, Fraction(1, 2))
        else:
            lat2, mu2 = corpus.scale_ranks(lat, Fraction(5, 2)), mu
        applied, failed = _oracles.structure_properties(lat2, mu2)
        assert not failed
        seen |= applied
    assert "argmin-step" in seen
    assert "bottom-zero" in seen and "measure-floor" in seen
    assert "positive-off-bottom" in seen
