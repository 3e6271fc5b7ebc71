"""The benchmark's own exact arithmetic: file texts, rank tables, lattices.

Nothing here imports polyflats.  The benchmark writes its input files and
derives every expected output with these helpers, so a check never trusts
the program it is checking.  Subsets are int bitmasks over an ordered label
tuple whose sorted order equals its declared order; values are Fractions.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

YES = {True: "yes", False: "no"}


def bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def describe(names, mask) -> str:
    return "{" + ",".join(sorted(names[i] for i in bits(mask))) + "}"


def _key(names, mask) -> str:
    return ",".join(sorted(names[i] for i in bits(mask)))


def ordered_masks(names):
    """Subsets in file order: by cardinality, then by sorted labels."""
    return sorted(range(1 << len(names)), key=lambda m: (m.bit_count(), sorted(names[i] for i in bits(m))))


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def polymatroid_text(names, values) -> str:
    rank = {_key(names, m): str(values[m]) for m in ordered_masks(names)}
    return dumps({"ground": list(names), "rank": rank})


def lattice_text(names, members, ranks) -> str:
    order = sorted(range(len(members)), key=lambda i: (members[i].bit_count(), _key(names, members[i])))
    elements = [
        {"set": sorted(names[b] for b in bits(members[i])), "rank": str(ranks[i])}
        for i in order
    ]
    return dumps({"ground": list(names), "elements": elements})


def measure_text(names, singles) -> str:
    return dumps({name: str(v) for name, v in zip(names, singles)})


def parse_polymatroid(text):
    """(labels, values) of a rank file; values indexed by mask."""
    doc = json.loads(text)
    names = tuple(doc["ground"])
    index = {name: i for i, name in enumerate(names)}
    values = [None] * (1 << len(names))
    for key, value in doc["rank"].items():
        mask = 0
        for label in key.split(",") if key else ():
            mask |= 1 << index[label]
        values[mask] = Fraction(value)
    return names, values


def table(n, fn):
    return [fn(a) for a in range(1 << n)]


def scaled_sum(n, terms):
    """Sum of w * min(|A & S|, c) over (S, c, w) terms, as integers over one
    denominator: returns (numerators, denominator)."""
    scale = math.lcm(*(w.denominator for _, _, w in terms))
    ints = [(s, c, int(w * scale)) for s, c, w in terms]
    return table(n, lambda a: sum(w * min((a & s).bit_count(), c) for s, c, w in ints)), scale


def fractions(ints, scale):
    return [Fraction(v, scale) for v in ints]


def graphic(n, vertices, edges):
    def rank(a):
        parent = list(range(vertices))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        r = 0
        for i in bits(a):
            u, v = find(edges[i][0]), find(edges[i][1])
            if u != v:
                parent[u] = v
                r += 1
        return r

    return table(n, rank)


def loops(n, values) -> int:
    return sum(1 << i for i in range(n) if values[1 << i] == 0)


def coloops(n, values) -> int:
    full = (1 << n) - 1
    return sum(
        1 << i for i in range(n) if values[full] - values[full ^ 1 << i] == values[1 << i]
    )


def is_integer(values) -> bool:
    return all(v.denominator == 1 for v in values)


def is_polymatroid(n, values) -> bool:
    """Non-negative, monotone and submodular (in local exchange form)."""
    if any(v < 0 for v in values):
        return False
    for a in range(1 << n):
        free = [i for i in range(n) if not a >> i & 1]
        if any(values[a] > values[a | 1 << i] for i in free):
            return False
        for x, i in enumerate(free):
            if any(submodular_violated(values, a, i, j) for j in free[x + 1:]):
                return False
    return True


def check_report(names, values, witness=None) -> str:
    """Stdout of ``check`` on a table that is a polymatroid, or that fails
    submodularity only, at ``witness`` = (A, i, j)."""
    n = len(names)
    integer = is_integer(values)
    matroid = witness is None and integer and all(values[1 << i] in (0, 1) for i in range(n))
    lines = [
        "nonnegative: yes",
        "monotone: yes",
        f"submodular: {YES[witness is None]}",
        f"integer-valued: {YES[integer]}",
        f"matroid: {YES[matroid]}",
    ]
    if witness is None:
        lines.append(f"loops: {describe(names, loops(n, values))}")
        lines.append(f"coloops: {describe(names, coloops(n, values))}")
    else:
        lines.append(f"witness: {submodular_witness_text(names, witness)}")
    return "\n".join(lines) + "\n"


def submodular_witness_text(names, witness) -> str:
    a, i, j = witness
    return f"submodular fails at {describe(names, a)} with elements {names[i]}, {names[j]}"


def submodular_violated(values, a, i, j) -> bool:
    return values[a | 1 << i] + values[a | 1 << j] < values[a | 1 << i | 1 << j] + values[a]


def cyclic_flats(n, values):
    """Cyclic flats ordered by (cardinality, mask)."""
    out = []
    for z in range(1 << n):
        if any(not z >> i & 1 and values[z | 1 << i] == values[z] for i in range(n)):
            continue
        if all(
            values[1 << i] == 0 or values[z] - values[z ^ 1 << i] < values[1 << i]
            for i in bits(z)
        ):
            out.append(z)
    out.sort(key=lambda m: (m.bit_count(), m))
    return out


def measure_table(n, singles):
    acc = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        acc[mask] = acc[mask ^ low] + singles[low.bit_length() - 1]
    return acc


def convolve(n, members, ranks, singles):
    mu = measure_table(n, singles)
    pairs = list(zip(members, ranks))
    return [min(r + mu[a & ~z] for z, r in pairs) for a in range(1 << n)]


def cyclic_flats_report(names, members, ranks) -> str:
    lines = [f"cyclic flats: {len(members)}"]
    lines += [f"  {describe(names, z)} rank {r}" for z, r in zip(members, ranks)]
    return "\n".join(lines) + "\n"


def dot_text(names, members, ranks) -> str:
    """Hasse diagram in the program's DOT layout; covers found by size order."""
    order = sorted(range(len(members)), key=lambda i: (members[i].bit_count(), _key(names, members[i])))
    ids = {members[i]: pos for pos, i in enumerate(order)}
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for i in order:
        lines.append(f'  n{ids[members[i]]} [label="{describe(names, members[i])}\\n{ranks[i]}"];')
    for i in order:
        low = members[i]
        above = sorted(
            (m for m in members if m != low and low & ~m == 0), key=lambda m: m.bit_count()
        )
        covers = []
        for high in above:
            if not any(c & ~high == 0 for c in covers):
                covers.append(high)
        for high in sorted(covers, key=ids.get):
            lines.append(f"  n{ids[low]} -> n{ids[high]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


CONDITIONS = ("C1", "C2", "C*", "C3", "C4", "C5a", "C5b")


def condition_lines(names, members, ranks, singles):
    """The ``axioms`` report: per condition, pass or the first violation in
    the documented scan order (members by cardinality, then mask)."""
    n, k = len(names), len(members)
    z, r = members, ranks
    mu = measure_table(n, singles)
    rank = dict(zip(members, ranks))
    full = (1 << n) - 1
    d = lambda m: describe(names, m)  # noqa: E731
    first = dict.fromkeys(CONDITIONS)
    if r[0] != 0:
        first["C1"] = (d(z[0]), r[0], "==", 0)
    for i in range(k):
        for j in range(k):
            if i == j or z[i] & ~z[j]:
                continue
            diff, gap, where = r[j] - r[i], mu[z[j] & ~z[i]], f"{d(z[i])}, {d(z[j])}"
            if first["C2"] is None and (diff < 0 or diff > gap):
                first["C2"] = (where, diff, ">=", 0) if diff < 0 else (where, diff, "<=", gap)
            if first["C*"] is None and (diff <= 0 or diff >= gap):
                first["C*"] = (where, diff, ">", 0) if diff <= 0 else (where, diff, "<", gap)
    for i in range(k):
        for j in range(i + 1, k):
            if first["C3"] is not None:
                break
            low = 0
            for m in members:
                if m & ~(z[i] & z[j]) == 0:
                    low |= m
            high = full
            for m in members:
                if (z[i] | z[j]) & ~m == 0:
                    high &= m
            left = r[i] + r[j]
            right = rank[high] + rank[low] + mu[(z[i] & z[j]) & ~low]
            if left < right:
                first["C3"] = (f"{d(z[i])}, {d(z[j])}", left, ">=", right)
    c4 = [
        (f"{d(z[i])}, element {names[a]}", singles[a], "<=", r[i])
        for i in range(k) for a in bits(z[i]) if singles[a] > r[i]
    ]
    c5a = [(d(z[i]), r[i], ">", 0) for i in range(1, k) if r[i] <= 0]
    c5b = [
        (f"element {names[a]}", singles[a], ">", 0)
        for a in range(n) if not z[0] >> a & 1 and singles[a] <= 0
    ]
    for name, found in (("C4", c4), ("C5a", c5a), ("C5b", c5b)):
        first[name] = found[0] if found else None
    return [
        f"{name:<4} pass" if first[name] is None
        else f"{name:<4} FAIL at {first[name][0]}: needs {' '.join(map(str, first[name][1:]))}"
        for name in CONDITIONS
    ]
