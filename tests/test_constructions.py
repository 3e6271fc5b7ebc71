"""Generators, block expansion, and infiltration."""

import random
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

from polyflats import (
    BadParameters,
    GroundOverlap,
    GroundSet,
    InfiltrationSpec,
    InputError,
    NotInteger,
    PolyflatsError,
    RankMismatch,
    SetFunction,
    check_conditions,
    check_polymatroid,
    default_labels,
    graphic_matroid,
    helgason_expand,
    helgason_lattice,
    infiltrate,
    infiltrate_via_lattices,
    random_polymatroid,
    uniform_matroid,
)
from polyflats import constructions
from polyflats.model import _common_denominator

import _oracles
import corpus


def table(labels, values):
    return SetFunction(GroundSet(tuple(labels)), [Fraction(v) for v in values])


def test_default_labels():
    assert default_labels(3) == ("a", "b", "c")
    assert default_labels(0) == ()


def test_uniform_matroid_tables():
    assert uniform_matroid(1, 2).values == (0, 1, 1, 1)
    assert uniform_matroid(0, 2).values == (0, 0, 0, 0)
    assert uniform_matroid(2, 2).values == (0, 1, 1, 2)
    assert uniform_matroid(2, 3, labels=("x", "y", "z")).ground.names == ("x", "y", "z")


def test_uniform_matroid_bad_parameters():
    with pytest.raises(BadParameters):
        uniform_matroid(3, 2)
    with pytest.raises(BadParameters):
        uniform_matroid(-1, 2)
    with pytest.raises(BadParameters):
        uniform_matroid(1, 21)
    with pytest.raises(BadParameters):
        uniform_matroid(1, 2, labels=("a",))


def test_graphic_matroid_triangle_is_uniform():
    f = graphic_matroid(3, [(0, 1), (1, 2), (0, 2)])
    assert f.ground.names == ("e1", "e2", "e3")
    assert f.values == uniform_matroid(2, 3).values


def test_graphic_matroid_parallel_and_loops():
    pair = graphic_matroid(2, [(0, 1), (0, 1)])
    assert pair.values == uniform_matroid(1, 2).values
    looped = graphic_matroid(2, [(0, 0), (0, 1)])
    assert looped.values == (0, 0, 1, 1)
    empty = graphic_matroid(3, [])
    assert empty.ground.n == 0
    assert empty.values == (0,)


def test_graphic_matroid_holds_only_the_endpoints_of_its_edges():
    # the vertex count only bounds the endpoints, however large it is
    path = [(0, 1), (1, 2), (2, 2)]
    assert graphic_matroid(10**12, path) == graphic_matroid(3, path)


def _random_multigraphs(count: int):
    """Seeded multigraphs on up to 6 endpoints, some of them past 10^9, with
    up to 14 edges: few endpoints make loops and parallel edges common."""
    rng = random.Random(2024)
    for _ in range(count):
        pool = [rng.choice((i, 10**9 + i, 2**40 + i)) for i in range(rng.randint(1, 6))]
        edges = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 14))]
        yield max(pool) + 1, edges


def test_graphic_matroid_matches_the_union_find_reference():
    graphs = [(vertices, edges) for _, vertices, edges in corpus.GRAPHS]
    graphs += _random_multigraphs(200)
    for vertices, edges in graphs:
        expected = _oracles.graphic_rank_reference(vertices, edges)
        assert graphic_matroid(vertices, edges).values == tuple(expected), (vertices, edges)
    # the random graphs reach loops, parallel edges and endpoints past 10^9
    edges = [e for _, es in graphs for e in es]
    assert any(u == v for u, v in edges)
    links = [[frozenset(e) for e in es if e[0] != e[1]] for _, es in graphs]
    assert any(len(set(between)) < len(between) for between in links)
    assert any(u > 10**9 for u, _ in edges)


TWENTY_EDGE_SHAPES = {
    # name: (vertices, edges, endpoints, components)
    "K7 minus an edge": (7, [e for e in combinations(range(7), 2) if e != (5, 6)], 7, 1),
    "20 parallel edges": (2, [(0, 1)] * 20, 2, 1),
    "triple-parallel chain with closing edges": (
        7, [(i, i + 1) for i in range(6) for _ in range(3)] + [(0, 6), (0, 3)], 7, 1
    ),
    "20 loops": (1, [(0, 0)] * 20, 1, 1),
    "wheel W10": (
        11, [(0, i) for i in range(1, 11)] + [(i, i % 10 + 1) for i in range(1, 11)], 11, 1
    ),
}


@pytest.mark.parametrize("name", TWENTY_EDGE_SHAPES)
def test_graphic_matroid_on_twenty_edges(name):
    vertices, edges, endpoints, components = TWENTY_EDGE_SHAPES[name]
    assert len(edges) == 20
    f = graphic_matroid(vertices, edges)
    assert check_polymatroid(f).is_matroid
    assert f.values[-1] == endpoints - components


def test_generators_hold_the_ints_their_values_give():
    for f in (
        uniform_matroid(0, 0),
        uniform_matroid(3, 5),
        graphic_matroid(4, [(0, 1), (1, 2), (2, 0), (3, 3), (0, 1)]),
    ):
        assert f._held == _common_denominator(f.values)
        assert f == SetFunction(f.ground, f.values)
        assert all(type(v) is Fraction for v in f.values)


def test_graphic_matroid_bad_parameters():
    with pytest.raises(BadParameters):
        graphic_matroid(-1, [])
    with pytest.raises(BadParameters):
        graphic_matroid(2, [(0, 2)])
    with pytest.raises(BadParameters):
        graphic_matroid(2, [(0,)])
    with pytest.raises(BadParameters, match="^bad edge 1$"):
        graphic_matroid(3, [1])
    with pytest.raises(BadParameters, match="^bad edge None$"):
        graphic_matroid(3, [None])
    with pytest.raises(BadParameters, match="at most 20 edges"):
        graphic_matroid(2, [(0, 1)] * 21)


def test_weighted_cover_sum_table():
    # two unit-weight covering terms, one over x,y and one over y,z
    g = GroundSet(("x", "y", "z"))
    f = SetFunction.from_callable(
        g,
        lambda m: Fraction(min((m & 0b011).bit_count(), 1))
        + Fraction(min((m & 0b110).bit_count(), 1)),
    )
    assert f.values == (0, 1, 2, 2, 1, 2, 2, 2)
    assert check_polymatroid(f).is_polymatroid


def test_random_polymatroid_is_deterministic():
    a = random_polymatroid(5, 4)
    b = random_polymatroid(5, 4)
    assert a == b
    c = random_polymatroid(6, 4)
    assert a != c


def test_random_polymatroid_modes_pass_the_axioms():
    for seed in range(10):
        assert check_polymatroid(random_polymatroid(seed, 4)).is_polymatroid
        t = random_polymatroid(seed, 3, mode="table")
        rep = check_polymatroid(t)
        assert rep.is_polymatroid and rep.integer_valued
    assert random_polymatroid(3, 3, integer=True).is_integer_valued()


def test_random_polymatroid_bad_parameters():
    with pytest.raises(BadParameters):
        random_polymatroid(0, 11)
    with pytest.raises(BadParameters):
        random_polymatroid(0, 5, mode="table")
    with pytest.raises(BadParameters):
        random_polymatroid(0, 3, mode="magic")


def test_an_exhausted_rejection_sampler_is_a_refusal(monkeypatch):
    # every draw reported as failing the axioms, so all 20,000 are spent
    failing = SimpleNamespace(is_polymatroid=False)
    monkeypatch.setattr(constructions, "check_polymatroid", lambda f: failing)
    with pytest.raises(PolyflatsError, match="^rejection sampling failed to find a table$") as info:
        random_polymatroid(0, 1, mode="table")
    assert not isinstance(info.value, InputError)


def test_helgason_worked_example():
    f = table("xy", [0, 2, 1, 2])
    expanded, emap = helgason_expand(f)
    assert expanded.ground.names == ("x#1", "x#2", "y#1")
    assert expanded.values == uniform_matroid(2, 3).values
    assert emap.blocks == (0b011, 0b100)
    assert check_polymatroid(expanded).is_matroid


def test_helgason_lattice_shape():
    f = table("xy", [0, 2, 1, 2])
    lattice, mu, emap = helgason_lattice(f)
    assert len(lattice) == 4
    assert lattice.rank_of(_oracles.block_union(emap, 0b11)) == 2
    assert mu.singleton == (1, 1, 1)
    rep = check_conditions(lattice, mu)
    assert rep.c1.passed and rep.c2.passed and rep.c3.passed and rep.c4.passed
    # the free element sits exactly on the strictness boundary
    assert not rep.cstar.passed


def test_helgason_single_element():
    f = table("x", [0, 3])
    expanded, emap = helgason_expand(f)
    assert expanded.ground.names == ("x#1", "x#2", "x#3")
    assert expanded.values == uniform_matroid(3, 3).values


def test_helgason_loop_gets_one_copy():
    f = table("xy", [0, 0, 1, 1])
    expanded, emap = helgason_expand(f)
    assert expanded.ground.names == ("x#1", "y#1")
    assert emap.blocks == (0b01, 0b10)
    assert expanded(expanded.ground.singleton("x#1")) == 0


def test_helgason_rejects_bad_input():
    with pytest.raises(NotInteger):
        helgason_expand(corpus.scale_function(uniform_matroid(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        helgason_expand(table("xy", [0, 1, 1, 3]))


def test_helgason_blocks_partition_the_expansion():
    for f in corpus.integer_corpus()[:40]:
        if f.ground.n == 0:
            continue
        expanded, emap = helgason_expand(f)
        union = 0
        for i in range(f.ground.n):
            block = emap.blocks[i]
            assert block.bit_count() == max(1, int(f.values[1 << i]))
            assert union & block == 0
            union |= block
        assert union == expanded.ground.full
        assert _oracles.block_union(emap, f.ground.full) == expanded.ground.full


def test_helgason_block_union_carries_the_original_ranks():
    for f in corpus.integer_corpus()[:40]:
        expanded, emap = helgason_expand(f)
        for a in f.ground.subsets():
            assert expanded.values[_oracles.block_union(emap, a)] == f.values[a]


def test_helgason_expansion_at_sixteen_elements():
    # one member per block union, 2^16 of them: building the lattice must
    # not compare them pairwise
    f = uniform_matroid(3, 16)
    expanded, emap = helgason_expand(f)
    assert check_polymatroid(expanded).is_matroid
    union = _oracles.block_union
    assert all(expanded.values[union(emap, a)] == f.values[a] for a in f.ground.subsets())


def test_helgason_copy_ranks_cap_at_one():
    from polyflats import bits

    for f in corpus.integer_corpus()[:40]:
        if f.ground.n == 0:
            continue
        expanded, emap = helgason_expand(f)
        for i in range(f.ground.n):
            want = min(Fraction(1), f.values[1 << i])
            for pos in bits(emap.blocks[i]):
                assert expanded.values[1 << pos] == want


def infiltration_example():
    host = table("mc", [0, 1, 1, 2])
    guest = table("pq", [0, 1, 1, 1])
    return InfiltrationSpec(host, "c", guest)


def test_infiltrate_worked_example():
    spec = infiltration_example()
    r = infiltrate(spec)
    assert r.ground.names == ("m", "p", "q")
    assert r.values == (0, 1, 1, 2, 1, 2, 1, 2)
    assert check_polymatroid(r).is_polymatroid


def test_infiltrate_restrictions_agree_with_the_pieces(infiltration_pairs):
    for spec in infiltration_pairs[:25]:
        r = infiltrate(spec)
        g = r.ground
        host_labels = [n for n in spec.host.ground.names if n != spec.pivot]
        guest_labels = spec.guest.ground.names
        pivot_bit = spec.host.ground.singleton(spec.pivot)
        for a in spec.host.ground.subsets():
            if a & pivot_bit:
                continue
            image = g.subset(spec.host.ground.labels(a))
            assert r.values[image] == spec.host.values[a]
            # swallowing the whole guest costs the pivot instead
            whole = image | g.subset(guest_labels)
            assert r.values[whole] == spec.host.values[a | pivot_bit]
        for b in spec.guest.ground.subsets():
            image = g.subset(spec.guest.ground.labels(b))
            assert r.values[image] == spec.guest.values[b]
        assert set(g.names) == set(host_labels) | set(guest_labels)


def test_infiltrate_spec_validation():
    host = table("mc", [0, 1, 1, 2])
    guest = table("pq", [0, 1, 1, 1])
    with pytest.raises(ValueError, match="pivot"):
        InfiltrationSpec(host, "z", guest)
    with pytest.raises(GroundOverlap):
        InfiltrationSpec(host, "c", table("mq", [0, 1, 1, 1]))
    with pytest.raises(RankMismatch):
        InfiltrationSpec(host, "c", table("pq", [0, 2, 2, 2]))
    with pytest.raises(ValueError, match="host"):
        InfiltrationSpec(table("mc", [0, 1, 1, 3]), "c", guest)
    with pytest.raises(ValueError, match="guest"):
        InfiltrationSpec(host, "c", table("pq", [0, 1, 1, 2 - 3]))


def test_infiltrate_via_lattices_matches_direct(infiltration_pairs):
    for spec in infiltration_pairs:
        assert infiltrate_via_lattices(spec) == infiltrate(spec)


def test_infiltrate_zero_pivot_with_empty_guest():
    host = table("mc", [0, 1, 0, 1])
    guest = SetFunction(GroundSet(()), [Fraction(0)])
    spec = InfiltrationSpec(host, "c", guest)
    r = infiltrate(spec)
    assert r.ground.names == ("m",)
    assert r.values == (0, 1)
    assert infiltrate_via_lattices(spec) == r


def test_infiltrate_matches_the_reference_loop(infiltration_pairs):
    for spec in infiltration_pairs:
        r = infiltrate(spec)
        expected = _oracles.infiltrate_reference(spec)
        assert r == expected
        # the held pair is exactly the one the values would give
        assert r._held == _common_denominator(expected.values)


def _scaled_guest(base: SetFunction, total, labels) -> SetFunction:
    return corpus.relabel(corpus.scale_function(base, total / base.values[base.ground.full]), labels)


def test_infiltrate_brings_host_and_guest_to_their_lcm():
    host = corpus.rational_sum_table(5, 4)
    pivot = next(name for name in host.ground.names if host(host.ground.singleton(name)) > 0)
    total = host(host.ground.singleton(pivot))
    guest = _scaled_guest(corpus.small_denominator_table(3), total, ("p", "q", "r"))
    spec = InfiltrationSpec(host, pivot, guest)
    assert host._held[0] != guest._held[0]
    r = infiltrate(spec)
    expected = _oracles.infiltrate_reference(spec)
    assert r == expected
    assert r._held == _common_denominator(expected.values)
    assert infiltrate_via_lattices(spec) == r


@pytest.mark.parametrize("wide", ["host", "guest"])
def test_infiltrate_past_the_lcm_bound_runs_on_fractions(wide):
    coprime = corpus.coprime_denominator_table(7)
    assert corpus.kernel_path(coprime) == "fractions"
    if wide == "host":
        host, pivot = coprime, "e0"
        guest = _scaled_guest(corpus.small_denominator_table(3), coprime(1), ("p", "q", "r"))
    else:
        guest = corpus.relabel(coprime, tuple(f"g{i}" for i in range(7)))
        host = corpus.scale_function(
            table("mc", [0, 1, 1, 2]), guest.values[guest.ground.full]
        )
        pivot = "c"
    spec = InfiltrationSpec(host, pivot, guest)
    r = infiltrate(spec)
    assert r == _oracles.infiltrate_reference(spec)
    if wide == "host":
        assert infiltrate_via_lattices(spec) == r


def test_infiltrate_via_lattices_needs_pointed_guest():
    host = table("mc", [0, 1, 1, 2])
    guest = table("pq", [1, 1, 1, 1])
    spec = InfiltrationSpec(host, "c", guest)
    with pytest.raises(ValueError, match="empty-set rank"):
        infiltrate_via_lattices(spec)
    # the direct table still works and keeps the guest's offset
    assert infiltrate(spec).values[0] == 1


def expand_to_matroid(f):
    """Replace every element of rank >= 2 by a free guest of that size."""
    current = f
    blocks = {}
    for name in f.ground.names:
        rank = f(f.ground.singleton(name))
        if rank <= 1:
            blocks[name] = (name,)
            continue
        k = int(rank)
        guest = uniform_matroid(k, k, labels=tuple(f"{name}_{j}" for j in range(1, k + 1)))
        current = infiltrate(InfiltrationSpec(current, name, guest))
        blocks[name] = guest.ground.names
    return current, blocks


def test_repeated_infiltration_builds_a_matroid():
    for f in corpus.integer_corpus()[:30]:
        if not check_polymatroid(f).is_polymatroid:
            continue
        expanded, blocks = expand_to_matroid(f)
        assert check_polymatroid(expanded).is_matroid
        for a in f.ground.subsets():
            union = expanded.ground.subset(
                [c for name in f.ground.labels(a) for c in blocks[name]]
            )
            assert expanded.values[union] == f.values[a]
