"""The public surface: exactly these names, each one importable."""

import polyflats

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
    "LatticeError",
    "MAX_GROUND_SIZE",
    "Measure",
    "NotAFlat",
    "NotALattice",
    "NotInteger",
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
