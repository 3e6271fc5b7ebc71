"""JSON file formats and DOT output.

Three document shapes, all UTF-8 JSON with no key repeated in an object:

* polymatroid: ``{"ground": [labels...], "rank": {subset-key: rational}}``
* lattice:     ``{"ground": [labels...], "elements": [{"set": [labels...], "rank": rational}]}``
* measure:     ``{label: rational, ...}`` (ground set comes from the paired lattice)

A subset key is the sorted member labels joined by commas; the empty string
is the empty set.  Rationals are ``p`` or ``p/q`` in ASCII digits.  Writers
emit subsets ordered by (cardinality, labels), so write -> read -> write is
byte-identical.

A rank table has 2^n entries, so its codec does no per-subset sorting or
splitting.  ``_file_order`` lists every (key, mask) in file order straight
from ``itertools.combinations`` over the labels in sorted order, which yields
each cardinality's subsets in the order of their sorted label tuples.  The
writer walks that order once.  The reader walks it alongside the file's keys,
so a file in file order costs one string comparison per key; any other key
(out of order, or not canonical like ``"b,a"``) is split and parsed as
before, so every refusal reads the same.  Tables repeat few values, so the
reader parses each distinct rational string once and scales it once to the
common-denominator int that the table keeps for the kernels; the writer
formats each distinct kept int once.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Iterator

from .constructions import ExpansionMap
from .lattice import RankedLattice, validate_lattice
from .model import (
    FileFormatError,
    GroundSet,
    Measure,
    SetFunction,
    _lcm_or_none,
    format_rational,
)

RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(text) -> Fraction:
    if not isinstance(text, str) or not RATIONAL_RE.fullmatch(text):
        raise FileFormatError(f"bad rational {text!r}: expected p or p/q")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise FileFormatError(f"bad rational {text!r}: zero denominator") from None
    except ValueError:
        # int() refuses digit strings beyond sys.get_int_max_str_digits()
        raise FileFormatError(
            f"bad rational of {len(text)} characters: too many digits"
        ) from None


def subset_key(ground: GroundSet, mask: int) -> str:
    return ",".join(ground.sorted_labels(mask))


def parse_subset_key(ground: GroundSet, key) -> int:
    if not isinstance(key, str):
        raise FileFormatError(f"bad subset key {key!r}")
    if key == "":
        return 0
    try:
        return ground.subset(key.split(","))
    except ValueError as exc:
        raise FileFormatError(f"bad subset key {key!r}: {exc}") from None


def _ground_from_doc(doc) -> GroundSet:
    if not isinstance(doc, dict) or "ground" not in doc:
        raise FileFormatError("document needs a 'ground' list")
    labels = doc["ground"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise FileFormatError("'ground' must be a list of labels")
    for label in labels:
        if "," in label:
            raise FileFormatError(f"label {label!r} contains a comma")
    try:
        return GroundSet(tuple(labels))
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None


def _ordered(ground: GroundSet, masks) -> list[tuple[tuple[str, ...], int]]:
    """(sorted labels, mask) pairs in the file order: by cardinality, then labels."""
    return sorted(((ground.sorted_labels(m), m) for m in masks), key=lambda p: (len(p[0]), p[0]))


def _file_order(ground: GroundSet) -> Iterator[tuple[str, int]]:
    """(subset key, mask) of every subset, in the file order of ``_ordered``."""
    labels = sorted(ground.names)
    singletons = [ground.singleton(label) for label in labels]
    for size in range(ground.n + 1):
        keys = map(",".join, combinations(labels, size))
        yield from zip(keys, map(sum, combinations(singletons, size)))


def polymatroid_to_doc(f: SetFunction) -> dict:
    for label in f.ground.names:
        if "," in label:
            raise FileFormatError(f"label {label!r} contains a comma; not serializable")
    d, scaled = f._scaled()
    if d is None:
        text = format_rational
    else:
        text = {x: format_rational(Fraction(x, d)) for x in set(scaled)}.__getitem__
    rank = {key: text(scaled[m]) for key, m in _file_order(f.ground)}
    return {"ground": list(f.ground.names), "rank": rank}


def polymatroid_from_doc(doc) -> SetFunction:
    ground = _ground_from_doc(doc)
    rank = doc.get("rank")
    if not isinstance(rank, dict):
        raise FileFormatError("polymatroid document needs a 'rank' map")
    order = _file_order(ground)
    parsed: dict[str, Fraction] = {}
    texts: list[str | None] = [None] * (1 << ground.n)
    for key, text in rank.items():
        expected, mask = next(order, (None, None))
        if mask is None or key != expected:
            # out of file order, not canonical, or past the last subset
            mask = parse_subset_key(ground, key)
        if texts[mask] is not None:
            raise FileFormatError(f"subset key {key!r} repeats an earlier subset")
        try:
            if text not in parsed:
                parsed[text] = parse_rational(text)
        except TypeError:  # unhashable, so not a string: parse_rational refuses it
            parse_rational(text)
        texts[mask] = text
    # no subset is filled twice, so fewer keys than subsets leaves a hole
    if len(rank) < len(texts):
        key = next(key for key, m in _file_order(ground) if texts[m] is None)
        raise FileFormatError(f"missing subset {key!r}")
    # scale each distinct value once, to the ints the kernels read
    length = {text: q.denominator.bit_length() for text, q in parsed.items()}
    d = _lcm_or_none(
        {q.denominator for q in parsed.values()},
        lambda: sum(map(length.__getitem__, texts)),
        len(texts),
    )
    if d is None:
        scaled = parsed
    else:
        scaled = {text: q.numerator * (d // q.denominator) for text, q in parsed.items()}
    return SetFunction._from_scaled(ground, d, list(map(scaled.__getitem__, texts)))


def lattice_to_doc(lattice: RankedLattice) -> dict:
    for label in lattice.ground.names:
        if "," in label:
            raise FileFormatError(f"label {label!r} contains a comma; not serializable")
    ground = lattice.ground
    return {
        "ground": list(ground.names),
        "elements": [
            {"set": list(labels), "rank": format_rational(lattice.rank_of(m))}
            for labels, m in _ordered(ground, lattice.members)
        ],
    }


def lattice_from_doc(doc) -> RankedLattice:
    """Parse and validate; lattice-law failures surface as LatticeError."""
    ground = _ground_from_doc(doc)
    elements = doc.get("elements")
    if not isinstance(elements, list):
        raise FileFormatError("lattice document needs an 'elements' list")
    family = []
    for entry in elements:
        if not isinstance(entry, dict) or "set" not in entry or "rank" not in entry:
            raise FileFormatError(f"bad lattice element {entry!r}")
        labels = entry["set"]
        if not isinstance(labels, list):
            raise FileFormatError(f"bad member set {labels!r}")
        try:
            mask = ground.subset(labels)
        except ValueError as exc:
            raise FileFormatError(f"{exc} in member") from None
        family.append((mask, parse_rational(entry["rank"])))
    return validate_lattice(ground, family)


def measure_to_doc(mu: Measure) -> dict:
    return {
        name: format_rational(mu.singleton[i])
        for i, name in enumerate(mu.ground.names)
    }


def measure_from_doc(doc, ground: GroundSet) -> Measure:
    if not isinstance(doc, dict):
        raise FileFormatError("measure document must be a label -> rational map")
    extra = set(doc) - set(ground.names)
    if extra:
        raise FileFormatError(f"measure names unknown elements {sorted(extra)}")
    missing = [name for name in ground.names if name not in doc]
    if missing:
        raise FileFormatError(f"measure misses elements {missing}")
    values = []
    for name in ground.names:
        v = parse_rational(doc[name])
        if v < 0:
            raise FileFormatError(f"negative measure {v} for element {name!r}")
        values.append(v)
    return Measure(ground, values)


def expansion_to_doc(emap: ExpansionMap) -> dict:
    return {
        "original": list(emap.original.names),
        "expanded": list(emap.expanded.names),
        "blocks": {
            name: list(emap.expanded.sorted_labels(emap.blocks[i]))
            for i, name in enumerate(emap.original.names)
        },
    }


def dumps_canonical(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _distinct_keys(pairs: list) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise FileFormatError(f"key {key!r} repeats in an object")
            seen.add(key)
    return doc


def _load(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text, object_pairs_hook=_distinct_keys)
    except FileFormatError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, a number literal with too many digits, or nesting
        # too deep for the parser
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from None


def read_polymatroid(path) -> SetFunction:
    return polymatroid_from_doc(_load(path))


def write_polymatroid(f: SetFunction, path) -> None:
    Path(path).write_text(dumps_canonical(polymatroid_to_doc(f)), encoding="utf-8")


def read_lattice(path) -> RankedLattice:
    return lattice_from_doc(_load(path))


def write_lattice(lattice: RankedLattice, path) -> None:
    Path(path).write_text(dumps_canonical(lattice_to_doc(lattice)), encoding="utf-8")


def read_measure(path, ground: GroundSet) -> Measure:
    return measure_from_doc(_load(path), ground)


def write_measure(mu: Measure, path) -> None:
    Path(path).write_text(dumps_canonical(measure_to_doc(mu)), encoding="utf-8")


def lattice_dot(lattice: RankedLattice) -> str:
    """Hasse diagram in DOT, nodes ordered by (cardinality, labels)."""
    ground = lattice.ground
    ordered = _ordered(ground, lattice.members)
    node_id = {m: i for i, (_, m) in enumerate(ordered)}
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for i, (labels, m) in enumerate(ordered):
        name = ("{" + ",".join(labels) + "}").replace("\\", "\\\\").replace('"', '\\"')
        label = f"{name}\\n{format_rational(lattice.rank_of(m))}"
        lines.append(f'  n{i} [label="{label}"];')
    for low, high in sorted((node_id[a], node_id[b]) for a, b in lattice.covers()):
        lines.append(f"  n{low} -> n{high};")
    lines.append("}")
    return "\n".join(lines) + "\n"
