"""Generators for small polymatroids plus two structural constructions.

The generators (uniform, graphic, seeded random) exist to feed the test
corpus and the CLI.  The two constructions are the interesting part:

* ``helgason_expand`` blows each element of an integer polymatroid up into a
  block of unit-rank copies and convolves the block lattice with the 0/1
  measure, producing a matroid whose rank on block unions reproduces the
  original function.

* ``infiltrate`` replaces a distinguished element of one polymatroid by a
  whole second polymatroid of equal total rank, by taking the pointwise
  minimum of the two ways a subset can pay for its part of the guest.

Both infiltration routes read the host through one pivot split,
``_pivot_split``: the host entries at the masks without the pivot, which in
ascending order are the kept host masks of the result, and the entries at
the same masks plus the pivot.  ``infiltrate`` takes the minimum of the two
per guest mask; ``infiltrate_via_lattices`` ranks its first lattice's two
halves with them.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, cycle, islice, repeat
from operator import add

from .convolution import convolve, convolve_lattices
from .lattice import RankedLattice
from .model import (
    MAX_GROUND_SIZE,
    GroundSet,
    InputError,
    Measure,
    PolyflatsError,
    SetFunction,
    _check_ground_size,
    _least_covers,
    _merged,
    bits,
)
from .polymatroid import check_polymatroid


class BadParameters(InputError):
    pass


class NotInteger(PolyflatsError):
    """The block expansion needs an integer-valued polymatroid."""


class RankMismatch(PolyflatsError):
    """Host rank of the pivot and guest total rank differ."""


class GroundOverlap(PolyflatsError):
    """Host and guest ground sets share labels."""


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(string.ascii_lowercase[:n])


def _resolve_labels(n: int, labels) -> GroundSet:
    if labels is None:
        return GroundSet(default_labels(n))
    ground = GroundSet(tuple(labels))
    if ground.n != n:
        raise BadParameters(f"need {n} labels, got {ground.n}")
    return ground


def uniform_matroid(k: int, n: int, labels=None) -> SetFunction:
    """Rank min(|A|, k) on an n-element ground set."""
    if not (isinstance(k, int) and isinstance(n, int) and 0 <= k <= n <= MAX_GROUND_SIZE):
        raise BadParameters(f"uniform matroid needs 0 <= k <= n <= {MAX_GROUND_SIZE}")
    ground = _resolve_labels(n, labels)
    ranks = map(min, map(int.bit_count, ground.subsets()), repeat(k))
    return SetFunction._from_scaled(ground, 1, list(ranks))


def graphic_matroid(vertices: int, edges, labels=None) -> SetFunction:
    """Rank of an edge subset: the vertex count minus the number of
    components of its subgraph.

    ``edges`` is a sequence of (u, v) vertex pairs below ``vertices``;
    self-loops are allowed and come out as loops of the matroid.  Only the
    edges' endpoints are ever held, so ``vertices`` just bounds them.

    The table is built one block per edge, the block of edge e = uv from
    the block of the edges below it: rank(B + e) = rank(B) + 1 unless B
    holds a u-v path, and B holds a path P exactly when the complement of B
    lies inside the complement of P.  So a 0/1 table over complements, 0 at
    the complement of each simple u-v path (found by a depth-first search),
    is 0 after the superset-min transform exactly at the complements of the
    B that hold a path; read backwards it is the gain of e on each B in mask
    order.  Each simple path is a distinct edge subset, so the search finds
    fewer paths than the block has masks.
    """
    edge_list = [tuple(e) if hasattr(e, "__iter__") else e for e in edges]
    if not (isinstance(vertices, int) and vertices >= 0):
        raise BadParameters("vertex count must be >= 0")
    if len(edge_list) > MAX_GROUND_SIZE:
        raise BadParameters(f"at most {MAX_GROUND_SIZE} edges")
    # the endpoints, numbered in the order they first appear
    point: dict[int, int] = {}
    ends = []
    for e in edge_list:
        is_pair = isinstance(e, tuple) and len(e) == 2
        if not (is_pair and all(isinstance(v, int) and 0 <= v < vertices for v in e)):
            raise BadParameters(f"bad edge {e!r}")
        ends.append(tuple(point.setdefault(v, len(point)) for v in e))
    if labels is None:
        labels = tuple(f"e{i + 1}" for i in range(len(edge_list)))
    ground = _resolve_labels(len(edge_list), labels)

    links: list[list[tuple[int, int]]] = [[] for _ in point]  # (edge bit, far end) per endpoint
    ranks = [0]
    for e, (u, v) in enumerate(ends):
        gain = [1] * len(ranks)
        paths = [(u, 0, 1 << u)]  # (last endpoint, edge mask, endpoints on it)
        while paths:
            x, path, on = paths.pop()
            if x == v:
                gain[~path] = 0  # index -1 - path: the complement of path among 2^e masks
            else:
                paths += [(y, path | bit, on | 1 << y) for bit, y in links[x] if not on >> y & 1]
        ranks += list(map(add, ranks, reversed(_least_covers(1, gain))))
        links[u].append((1 << e, v))
        links[v].append((1 << e, u))
    return SetFunction._from_scaled(ground, 1, ranks)


def random_polymatroid(
    seed: int,
    n: int,
    *,
    mode: str = "sum",
    terms: int = 4,
    max_rank: int = 4,
    integer: bool = False,
    labels=None,
) -> SetFunction:
    """Seed-deterministic random polymatroid on n elements.

    ``sum`` mode adds weighted uniform ranks over random supports, which is
    a polymatroid by construction.  ``table`` mode (n <= 4) draws random
    monotone integer tables capped at 4 and keeps the first submodular one;
    if none of 20,000 draws is, it raises ``PolyflatsError``.
    """
    if not all(isinstance(v, int) for v in (seed, n, terms, max_rank)):
        raise BadParameters("seed, n, terms and max_rank must be ints")
    if not 0 <= n <= 10:
        raise BadParameters("random polymatroids are limited to n <= 10")
    if mode not in ("sum", "table"):
        raise BadParameters(f"unknown mode {mode!r}")
    if mode == "table" and n > 4:
        raise BadParameters("table mode is limited to n <= 4")
    ground = _resolve_labels(n, labels)
    if n == 0:
        return SetFunction(ground, [0])
    rng = random.Random(1_000_003 * seed + 9_176 * n + (1 if mode == "table" else 0))

    if mode == "sum":
        if max_rank < 1:
            raise BadParameters("max_rank must be >= 1")
        summands = []
        for _ in range(rng.randint(2, max(2, terms))):
            support = rng.randrange(1, 1 << n)
            cap = rng.randint(1, min(support.bit_count(), max_rank))
            if integer:
                weight = Fraction(rng.randint(1, 2))
            else:
                weight = Fraction(rng.randint(1, 4), rng.choice((1, 2, 3)))
            summands.append((support, cap, weight))

        def value(a: int) -> Fraction:
            return sum(
                (w * min((a & s).bit_count(), c) for s, c, w in summands),
                Fraction(0),
            )

        return SetFunction.from_callable(ground, value)

    size = 1 << n
    for _ in range(20_000):
        values = [0] * size
        for mask in range(1, size):
            floor = max(values[mask ^ (1 << i)] for i in bits(mask))
            values[mask] = min(floor + rng.choice((0, 0, 0, 1, 1, 2)), 4)
        candidate = SetFunction(ground, values)
        if check_polymatroid(candidate).is_polymatroid:
            return candidate
    raise PolyflatsError("rejection sampling failed to find a table")


@dataclass(frozen=True)
class ExpansionMap:
    """Bookkeeping for the block expansion.

    ``blocks[i]`` is the mask (in the expanded ground set) of the copies of
    original element i; the first copy ``name#1`` stands for the original
    element itself.  Blocks are disjoint and cover the expanded ground set.
    """

    original: GroundSet
    expanded: GroundSet
    blocks: tuple[int, ...]


def helgason_lattice(f: SetFunction) -> tuple[RankedLattice, Measure, ExpansionMap]:
    """Block lattice and 0/1 measure for the expansion of ``f``.

    Members are exactly the unions of whole blocks, ranked by f of the
    underlying original subset; the measure gives each copy min(1, f(i)).
    """
    report = check_polymatroid(f)
    if not report.is_polymatroid:
        raise PolyflatsError("block expansion needs a polymatroid")
    if not report.integer_valued:
        raise NotInteger("block expansion needs an integer-valued polymatroid")

    widths = [max(1, int(v)) for v in f.singletons()]
    _check_ground_size(sum(widths))
    names, blocks, position = [], [], 0
    for name, width in zip(f.ground.names, widths):
        names += [f"{name}#{copy}" for copy in range(1, width + 1)]
        blocks.append(((1 << width) - 1) << position)
        position += width
    expanded = GroundSet(tuple(names))
    emap = ExpansionMap(f.ground, expanded, tuple(blocks))

    # Doubling by each block in turn lists the block unions in mask order.
    unions = [0]
    for block in blocks:
        unions += [u | block for u in unions]

    singles = [min(Fraction(1), v) for v, w in zip(f.singletons(), widths) for _ in range(w)]
    lattice = RankedLattice._from_family(expanded, zip(unions, f.values))
    return lattice, Measure(expanded, singles), emap


def helgason_expand(f: SetFunction) -> tuple[SetFunction, ExpansionMap]:
    """Matroid factor of an integer polymatroid via block expansion."""
    lattice, mu, emap = helgason_lattice(f)
    return convolve(lattice, mu), emap


@dataclass(frozen=True)
class InfiltrationSpec:
    """Host polymatroid, the pivot element to replace, and the guest.

    Construction validates the contract: the pivot belongs to the host, the
    ground sets are disjoint, both functions pass the polymatroid check and
    the host rank of the pivot equals the guest's total rank.
    """

    host: SetFunction
    pivot: str
    guest: SetFunction

    def __post_init__(self):
        if self.pivot not in self.host.ground.names:
            raise PolyflatsError(f"pivot {self.pivot!r} is not in the host ground set")
        overlap = set(self.host.ground.names) & set(self.guest.ground.names)
        if overlap:
            raise GroundOverlap(f"host and guest share labels {sorted(overlap)}")
        if not check_polymatroid(self.host).is_polymatroid:
            raise PolyflatsError("host fails the polymatroid axioms")
        if not check_polymatroid(self.guest).is_polymatroid:
            raise PolyflatsError("guest fails the polymatroid axioms")
        pivot_rank = self.host(self.host.ground.singleton(self.pivot))
        total = self.guest(self.guest.ground.full)
        if pivot_rank != total:
            raise RankMismatch(
                f"host rank of {self.pivot!r} is {pivot_rank}, guest total rank is {total}"
            )

    @property
    def kept_indices(self) -> tuple[int, ...]:
        p = self.host.ground.index(self.pivot)
        return tuple(i for i in range(self.host.ground.n) if i != p)

    def result_ground(self) -> GroundSet:
        kept = tuple(self.host.ground.names[i] for i in self.kept_indices)
        return GroundSet(kept + self.guest.ground.names)


def _pivot_split(entries, bit: int) -> tuple[list, list]:
    """The host ``entries`` at the masks without the pivot ``bit``,
    ascending, and those at each of the same masks plus the pivot.  The
    first list is the kept host masks of the result, in order."""
    without_pivot = [1] * bit + [0] * bit
    without = list(compress(entries, cycle(without_pivot)))
    return without, list(compress(islice(entries, bit, None), cycle(without_pivot)))


def infiltrate(spec: InfiltrationSpec) -> SetFunction:
    """Replace the pivot by the guest.

    Each subset pays either its guest part at guest prices, or the whole
    pivot at host prices, whichever is cheaper:

        r(A) = min( host(A&M) + guest(A&P),  host((A&M) + pivot) )

    Each guest mask's block of the result is one ``map`` over the two
    halves of ``_pivot_split``, on the ints both tables hold over the lcm of
    their denominators.
    """
    ground = spec.result_ground()
    d, (host, guest) = _merged(spec.host._held, spec.guest._held)
    without, with_ = _pivot_split(host, spec.host.ground.singleton(spec.pivot))
    values = list(
        chain.from_iterable(map(min, map(add, without, repeat(g)), with_) for g in guest)
    )
    return SetFunction._from_scaled(ground, d, values)


def infiltrate_via_lattices(spec: InfiltrationSpec) -> SetFunction:
    """The same function by two-lattice convolution.

    The first lattice holds the host-side subsets, either avoiding the guest
    entirely or swallowing it whole (rank then charged through the pivot);
    the second is the full subset lattice of the guest at guest ranks.  The
    route needs a guest that vanishes on the empty set, otherwise every
    cover would overcharge the swallow branch by guest(empty).
    """
    if spec.guest.values[0] != 0:
        raise PolyflatsError("lattice route needs a guest with zero empty-set rank")
    ground = spec.result_ground()
    m = spec.host.ground.n - 1
    guest_part = ground.full & ~((1 << m) - 1)
    without, with_ = _pivot_split(spec.host.values, spec.host.ground.singleton(spec.pivot))
    # With an empty guest the pivot is a loop, so the overwrite is a no-op.
    first = chain(zip(range(1 << m), without), zip(range(guest_part, ground.full + 1), with_))
    second = zip(range(0, guest_part + 1, 1 << m), spec.guest.values)
    build = RankedLattice._from_family
    return convolve_lattices(build(ground, first), build(ground, second))
