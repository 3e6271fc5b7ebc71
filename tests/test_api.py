"""The public surface: exactly these names, each one importable, and one
refusal hierarchy under ``PolyflatsError``."""

import ast
import builtins
import importlib
from pathlib import Path

import polyflats
from polyflats import PolyflatsError

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "polyflats").glob("*.py"))

PUBLIC = [
    "AxiomWitness",
    "BadParameters",
    "ConditionReport",
    "DuplicateElement",
    "ElementNotInLattice",
    "ExpansionMap",
    "GroundOverlap",
    "GroundSet",
    "GroundSetMismatch",
    "InfiltrationSpec",
    "InputError",
    "LatticeError",
    "MAX_GROUND_SIZE",
    "Measure",
    "NotAFlat",
    "NotALattice",
    "NotInteger",
    "PolyflatsError",
    "PolymatroidReport",
    "RankMismatch",
    "RankedLattice",
    "RecoveryMismatch",
    "RoundTripReport",
    "SetFunction",
    "Verdict",
    "Witness",
    "bits",
    "check_conditions",
    "check_polymatroid",
    "closure",
    "coloops",
    "convolve",
    "convolve_lattices",
    "cyclic_flats",
    "default_labels",
    "flats",
    "graphic_matroid",
    "helgason_expand",
    "helgason_lattice",
    "induced_measure",
    "infiltrate",
    "infiltrate_via_lattices",
    "is_cyclic_flat",
    "is_flat",
    "loops",
    "max_cyclic_flat",
    "normalize_pointed",
    "random_polymatroid",
    "reconstruction_failure",
    "submasks",
    "to_fraction",
    "uniform_matroid",
    "validate_lattice",
    "verify_main_theorem",
]


def test_public_names_are_pinned():
    # reference implementations used only by tests live in tests/_oracles.py
    assert polyflats.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in polyflats.__all__:
        assert getattr(polyflats, name) is not None, name


class _BuiltinRaises(ast.NodeVisitor):
    """(function, exception) for each raise of a built-in exception class."""

    def __init__(self):
        self.where, self.found = ["<module>"], []

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        cls = getattr(builtins, exc.id, None) if isinstance(exc, ast.Name) else None
        if isinstance(cls, type) and issubclass(cls, BaseException):
            self.found.append((self.where[-1], exc.id))


def test_the_library_raises_no_builtin_exception_but_the_float_refusal():
    # a refusal is a PolyflatsError; a bare ValueError or RuntimeError would
    # reach the command line as a bug
    found = []
    for path in SOURCES:
        visitor = _BuiltinRaises()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += [(path.name, *raised) for raised in visitor.found]
    assert len(SOURCES) > 5
    assert found == [("model.py", "to_fraction", "TypeError")]


def test_every_exception_class_is_a_refusal():
    assert issubclass(PolyflatsError, ValueError)
    defined = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        if names:  # importing __main__, which defines none, would run the CLI
            module = importlib.import_module(f"polyflats.{path.stem}")
            classes = [getattr(module, name) for name in names]
            defined += [cls for cls in classes if issubclass(cls, BaseException)]
    assert len(defined) == 13
    for cls in defined:
        assert issubclass(cls, PolyflatsError), cls
