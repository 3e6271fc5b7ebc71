"""JSON file formats and DOT output.

Three document shapes, all UTF-8 JSON with no key repeated in an object:

* polymatroid: ``{"ground": [labels...], "rank": {subset-key: rational}}``
* lattice:     ``{"ground": [labels...], "elements": [{"set": [labels...], "rank": rational}]}``
* measure:     ``{label: rational, ...}`` (ground set comes from the paired lattice)

A subset key is the sorted member labels joined by commas; the empty string
is the empty set.  Rationals are ``p`` or ``p/q`` in ASCII digits.  Writers
emit subsets ordered by (cardinality, labels), so write -> read -> write is
byte-identical.

A rank table has 2^n entries, so its codec keeps the per-subset work in C
where it can.  ``_file_order`` lists every subset's key and mask in file
order straight from ``itertools.combinations`` over the labels in sorted
order, which yields each cardinality's subsets in the order of their sorted
label tuples; grounds of up to 2^12 subsets keep these lists, larger ones
get fresh iterators, as the lists would take over 100 MB at n = 20.  The
writer, ``polymatroid_text``, formats each distinct value the table holds
once and emits the rank lines as one ``str.join`` of the JSON-quoted keys
and those texts, byte-identical to ``dumps_canonical`` of the document;
``polymatroid_to_doc`` is that text parsed back.  The reader takes a map whose keys are exactly the
file order, and whose distinct values all parse, by moving the values to
their masks in one loop and scaling each distinct one once to the
common-denominator int that the table keeps for the kernels.  Any other map
is read one key at a time: a key in its file-order place costs one string
comparison, any other (out of order, or not canonical like ``"b,a"``) is
split and parsed, so every refusal names the first bad key or value, as it
always has.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from json.encoder import encode_basestring
from operator import add, eq
from pathlib import Path
from typing import Iterable, NamedTuple

from .constructions import ExpansionMap
from .lattice import RankedLattice, validate_lattice
from .model import (
    FileFormatError,
    GroundSet,
    Measure,
    PolyflatsError,
    SetFunction,
    _exact,
    _held,
    format_rational,
)

RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(text) -> Fraction:
    if not isinstance(text, str) or not (match := RATIONAL_RE.fullmatch(text)):
        raise FileFormatError(f"bad rational {text!r}: expected p or p/q")
    try:
        # from ints, which Fraction takes faster than a string it would parse again
        if match.group(1) is None:
            return Fraction(int(text))
        numerator, denominator = text.split("/")
        return Fraction(int(numerator), int(denominator))
    except ZeroDivisionError:
        raise FileFormatError(f"bad rational {text!r}: zero denominator") from None
    except ValueError:
        # int() refuses digit strings beyond sys.get_int_max_str_digits()
        raise FileFormatError(
            f"bad rational of {len(text)} characters: too many digits"
        ) from None


def parse_subset_key(ground: GroundSet, key) -> int:
    if not isinstance(key, str):
        raise FileFormatError(f"bad subset key {key!r}")
    if key == "":
        return 0
    try:
        return ground.subset(key.split(","))
    except PolyflatsError as exc:
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
    except PolyflatsError as exc:
        raise FileFormatError(str(exc)) from None


def _ordered(ground: GroundSet, masks) -> list[tuple[tuple[str, ...], int]]:
    """(sorted labels, mask) pairs in the file order: by cardinality, then labels."""
    return sorted(((ground.sorted_labels(m), m) for m in masks), key=lambda p: (len(p[0]), p[0]))


class _FileOrder(NamedTuple):
    """Every subset of a ground set in file order: its key, its key as it
    stands between the quotes in a file (each label JSON-escaped), and its
    mask."""

    keys: Iterable[str]
    quoted: Iterable[str]
    masks: Iterable[int]


# Grounds of at most 2^12 subsets keep their file order as lists, the few
# used last; a larger one gets fresh iterators on each call, since at n = 20
# the lists would take more than 100 MB.  An infiltration alone reads a host
# and a guest and writes their result, and a process that runs several
# commands in turn cycles through more grounds than that.
_KEPT_ORDER_BITS = 12
_KEPT_ORDERS = 8


def _file_order(ground: GroundSet) -> _FileOrder:
    """The ``_FileOrder`` of ``ground``: the kept lists of a small ground,
    else fresh iterators."""
    return _kept_order(ground) if ground.n <= _KEPT_ORDER_BITS else _built_order(ground)


def _built_order(ground: GroundSet) -> _FileOrder:
    """The file order, built in C: ``combinations`` over the labels in
    sorted order yields each cardinality's subsets in the order of their
    sorted label tuples, which is the order of ``_ordered``.  JSON escapes a
    string one character at a time and leaves commas alone, so joining the
    escaped labels escapes the key.  A small ground's order is listed, the
    keys' list standing for the quoted keys when no label needs escaping."""
    labels = sorted(ground.names)
    escaped = [encode_basestring(label)[1:-1] for label in labels]
    singletons = [ground.singleton(label) for label in labels]
    sizes = range(ground.n + 1)

    def joined(names):
        return chain.from_iterable(map(",".join, combinations(names, k)) for k in sizes)

    masks = chain.from_iterable(map(sum, combinations(singletons, k)) for k in sizes)
    if ground.n > _KEPT_ORDER_BITS:
        return _FileOrder(joined(labels), joined(escaped), masks)
    keys = list(joined(labels))
    return _FileOrder(keys, keys if escaped == labels else list(joined(escaped)), list(masks))


# keyed by the GroundSet, which hashes and compares by its names
_kept_order = lru_cache(maxsize=_KEPT_ORDERS)(_built_order)


def _refuse_commas(ground: GroundSet) -> None:
    for label in ground.names:
        if "," in label:
            raise FileFormatError(f"label {label!r} contains a comma; not serializable")


def polymatroid_to_doc(f: SetFunction) -> dict:
    return json.loads(polymatroid_text(f))


def polymatroid_text(f: SetFunction) -> str:
    """The rank file of ``f``, as ``dumps_canonical`` writes its document:
    each distinct held value is formatted once, and the rank lines are one
    join, in C, of each quoted key and its value's text, the quote that
    opens a key ending the text before it."""
    _refuse_commas(f.ground)
    d, scaled = f._held
    text = {x: f'": "{format_rational(_exact(d, x))}"' for x in set(scaled)}
    order = _file_order(f.ground)
    names = ",\n".join("    " + encode_basestring(name) for name in f.ground.names)
    head = '{\n  "ground": [' + (f"\n{names}\n  " if names else "") + '],\n  "rank": {\n    "'
    values = map(text.__getitem__, map(scaled.__getitem__, order.masks))
    return head + ',\n    "'.join(map(add, order.quoted, values)) + "\n  }\n}\n"


def polymatroid_from_doc(doc) -> SetFunction:
    ground = _ground_from_doc(doc)
    rank = doc.get("rank")
    if not isinstance(rank, dict):
        raise FileFormatError("polymatroid document needs a 'rank' map")
    order = _file_order(ground)
    if len(rank) == 1 << ground.n and all(map(eq, rank, order.keys)):
        # every key in file order: if every value parses, the table is the
        # values moved to their masks
        texts = [None] * len(rank)
        for mask, text in zip(order.masks, rank.values()):
            texts[mask] = text
        try:
            parsed = {text: parse_rational(text) for text in set(texts)}
        except (FileFormatError, TypeError):  # TypeError: an unhashable value
            pass
        else:
            return SetFunction._from_held(ground, _held(texts, parsed))
    return _from_rank_items(ground, rank)


def _from_rank_items(ground: GroundSet, rank: dict) -> SetFunction:
    """The rank map read one key at a time: a key in its file-order place
    costs one string comparison, any other is split and parsed, and each
    value is checked where it stands, so the first bad key or value in the
    map is the one refused."""
    order = _file_order(ground)
    expected = zip(order.keys, order.masks)
    parsed = {}
    texts: list[str | None] = [None] * (1 << ground.n)
    for key, text in rank.items():
        expected_key, mask = next(expected, (None, None))
        if mask is None or key != expected_key:
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
        order = _file_order(ground)
        key = next(key for key, m in zip(order.keys, order.masks) if texts[m] is None)
        raise FileFormatError(f"missing subset {key!r}")
    return SetFunction._from_held(ground, _held(texts, parsed))


def lattice_to_doc(lattice: RankedLattice) -> dict:
    _refuse_commas(lattice.ground)
    ground, rank = lattice.ground, dict(lattice.items())
    return {
        "ground": list(ground.names),
        "elements": [
            {"set": list(labels), "rank": format_rational(rank[m])}
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
        except PolyflatsError as exc:
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
    Path(path).write_text(polymatroid_text(f), encoding="utf-8")


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
    ground, rank = lattice.ground, dict(lattice.items())
    ordered = _ordered(ground, lattice.members)
    node_id = {m: i for i, (_, m) in enumerate(ordered)}
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for i, (labels, m) in enumerate(ordered):
        name = ("{" + ",".join(labels) + "}").replace("\\", "\\\\").replace('"', '\\"')
        label = f"{name}\\n{format_rational(rank[m])}"
        lines.append(f'  n{i} [label="{label}"];')
    for low, high in sorted((node_id[a], node_id[b]) for a, b in lattice.covers()):
        lines.append(f"  n{low} -> n{high};")
    lines.append("}")
    return "\n".join(lines) + "\n"
