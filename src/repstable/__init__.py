"""Repetitive algebras of gentle algebras over exact fields: string
modules, almost split sequences and the classification of irreducible
morphisms in the stable category."""

__version__ = "0.1.0"

from .fields import QQ, PrimeField, get_field
from .presentation import (
    AlgebraPresentation,
    ParseError,
    PathWord,
    Quiver,
    RelationGen,
    parse_presentation,
    validate_gentle,
)
from .repetitive import (
    RepetitiveWindow,
    build_repetitive_window,
    maximal_paths,
    quotient_by_socle,
    radical_of_projective,
)

__all__ = [
    "QQ", "PrimeField", "get_field",
    "AlgebraPresentation", "ParseError", "PathWord", "Quiver", "RelationGen",
    "parse_presentation", "validate_gentle",
    "RepetitiveWindow", "build_repetitive_window", "maximal_paths",
    "quotient_by_socle", "radical_of_projective",
    "__version__",
]
