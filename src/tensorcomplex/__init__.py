"""Exact verification workbench for matrix-field differential complexes.

Everything runs on sparse trivariate polynomials over exact rationals, so
every identity, commuting cell, 2-complex path, right-inverse chain, regular
decomposition and duality pairing is checked with zero tolerance.
"""

from .fields import FieldKind, TypedField, field_from_text, field_to_text
from .poly import Poly3

__all__ = [
    "FieldKind",
    "TypedField",
    "Poly3",
    "field_from_text",
    "field_to_text",
]
