"""Timing wrappers around polyflats functions, installed only in traced runs.

Each wrapper records a span (instance, name, parent, start, end) in memory
and adds to per-function counters.  Work counters and repeat hashes are
computed here from call arguments and results, outside the span's own
timed interval, and their cost is charged to no function's self time.
Because polyflats modules bind names with ``from .x import f``, a wrapper
replaces the function on every module that holds it.
"""

from __future__ import annotations

import importlib
from time import perf_counter

MODULES = ("", ".model", ".lattice", ".polymatroid", ".convolution", ".constructions", ".files", ".cli")


def _size(f):
    return len(f.values)


# (layer, module, attribute, counters, repeat key).  A counter maps the call's
# (args, result) to an amount; the repeat key maps args to a hashable value.
# ``pairs`` for validate_lattice counts the i <= j member pairs it tables;
# for check_conditions, the unordered pairs of distinct members.
TARGETS = [
    ("cli.main", "cli", "main", {"exit_2": lambda a, r: int(r == 2)}, None),
    ("files.polymatroid_from_doc", "files", "polymatroid_from_doc",
     {"subsets": lambda a, r: _size(r)}, None),
    ("files.polymatroid_to_doc", "files", "polymatroid_to_doc", {}, None),
    ("files.dumps_canonical", "files", "dumps_canonical",
     {"bytes": lambda a, r: len(r.encode("utf-8"))}, None),
    ("files.lattice_from_doc", "files", "lattice_from_doc", {}, None),
    ("files.lattice_to_doc", "files", "lattice_to_doc", {}, None),
    ("files.lattice_dot", "files", "lattice_dot", {}, None),
    ("polymatroid.check_polymatroid", "polymatroid", "check_polymatroid",
     {"subsets": lambda a, r: _size(a[0])}, lambda a: hash(a[0])),
    ("polymatroid.cyclic_flats", "polymatroid", "cyclic_flats",
     {"members": lambda a, r: len(r[0])}, None),
    ("polymatroid.reconstruction_failure", "polymatroid", "reconstruction_failure", {}, None),
    ("lattice.validate_lattice", "lattice", "validate_lattice",
     {"members": lambda a, r: len(r), "pairs": lambda a, r: len(r) * (len(r) + 1) // 2},
     lambda a: (a[0].names, tuple(sorted(a[1])))),
    ("lattice.check_conditions", "lattice", "check_conditions",
     {"pairs": lambda a, r: len(a[0]) * (len(a[0]) - 1) // 2}, lambda a: hash((a[0], a[1]))),
    ("convolution.convolve", "convolution", "convolve",
     {"terms": lambda a, r: len(a[0]) * _size(r)}, None),
    ("convolution.convolve_lattices", "convolution", "convolve_lattices",
     {"terms": lambda a, r: len(a[0]) * len(a[1]) * _size(r)}, None),
    ("convolution.verify_main_theorem", "convolution", "verify_main_theorem", {}, None),
    ("constructions.helgason_expand", "constructions", "helgason_expand", {}, None),
    ("constructions.helgason_lattice", "constructions", "helgason_lattice", {}, None),
    ("constructions.infiltrate", "constructions", "infiltrate", {}, None),
    ("constructions.infiltrate_via_lattices", "constructions", "infiltrate_via_lattices", {}, None),
    ("constructions.InfiltrationSpec", "constructions", "InfiltrationSpec.__init__", {}, None),
    ("model.SetFunction", "model", "SetFunction.__init__",
     {"values": lambda a, r: _size(a[0])}, None),
    ("model.Measure.table", "model", "Measure.table", {}, None),
]

UNITS = {"calls": "count", "self_s": "s", "bytes": "bytes", "repeat_ratio": "ratio"}


def metric_units():
    """Name -> unit of every per-layer metric a traced run prints."""
    out = {}
    for layer, _, _, counters, key in TARGETS:
        for stat in ["calls", "self_s", *counters] + (["repeat_ratio"] if key else []):
            out[f"{layer}.{stat}"] = UNITS.get(stat, "count")
    out["trace.overhead_ratio"] = "ratio"
    out["trace.uncovered_share"] = "ratio"
    return out


class Tracer:
    """Span recorder whose wrappers go on and off the polyflats modules."""

    def __init__(self):
        self.spans = []          # (instance, name, parent index, start, end)
        self.totals = {}         # layer -> stat -> amount
        self.repeats = {}        # layer -> [calls with a key, repeats]
        self.instance = None
        self._seen = {}
        self._stack = []         # [span index, covered-by-children seconds]
        self._wrapped = []       # (module or class, attribute, original, wrapper)

    def start_instance(self, label):
        self.instance = label
        self._seen = {}

    def install(self, package="polyflats"):
        """Put the wrappers on; ``uninstall`` restores the originals."""
        if not self._wrapped:
            self._build(package)
        for obj, name, _, wrapped in self._wrapped:
            setattr(obj, name, wrapped)

    def uninstall(self):
        for obj, name, original, _ in self._wrapped:
            setattr(obj, name, original)

    def _build(self, package):
        modules = [importlib.import_module(package + suffix) for suffix in MODULES]
        for layer, module, attr, counters, key in TARGETS:
            owner_name, _, method = attr.rpartition(".")
            home = importlib.import_module(f"{package}.{module}")
            if owner_name:
                owner = getattr(home, owner_name)
                original = getattr(owner, method)
                wrapped = self._wrap(layer, original, counters, key)
                self._wrapped.append((owner, method, original, wrapped))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(layer, original, counters, key)
            for mod in modules:
                for name, value in vars(mod).items():
                    if value is original:
                        self._wrapped.append((mod, name, original, wrapped))

    def _wrap(self, layer, fn, counters, key):
        totals = self.totals.setdefault(layer, dict.fromkeys(["calls", "self_s", *counters], 0))
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            if layer == "lattice.validate_lattice":
                # Its family may be a one-shot iterator; the repeat key and the
                # call both need to read it.
                args = (args[0], list(args[1]), *args[2:])
            if key is not None:
                self._note_repeat(layer, key(args))
            frame = [len(spans), 0.0]
            spans.append(None)
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[frame[0]] = (self.instance, layer, parent, start, end)
                totals["calls"] += 1
                totals["self_s"] += (end - start) - frame[1]
            for stat, count in counters.items():
                totals[stat] += count(args, result)
            if stack:
                stack[-1][1] += perf_counter() - entered
            return result

        return wrapper

    def _note_repeat(self, layer, value):
        seen = self._seen.setdefault(layer, set())
        counts = self.repeats.setdefault(layer, [0, 0])
        counts[0] += 1
        if value in seen:
            counts[1] += 1
        seen.add(value)

    def top_level_seconds(self, first_span):
        """Seconds covered by root spans recorded since ``first_span``."""
        return sum(s[4] - s[3] for s in self.spans[first_span:] if s[2] is None)

    def metrics(self, passes):
        """Per-pass amounts for every layer stat, plus repeat ratios."""
        out = {}
        for layer, _, _, _, key in TARGETS:
            for stat, amount in self.totals[layer].items():
                out[f"{layer}.{stat}"] = amount / passes
            if key is not None:
                calls, repeats = self.repeats.get(layer, (0, 0))
                out[f"{layer}.repeat_ratio"] = repeats / calls if calls else 0.0
        return out
