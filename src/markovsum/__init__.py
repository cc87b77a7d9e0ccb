"""markovsum: exact-arithmetic series transformation and acceleration.

A library for telescoping series transformations over exact rationals:
pairs of lattice functions bound by a discrete curl-free condition, the
boundary identity that trades a slow series for a fast one, telescoping
certificates in operator form, and a catalog of geometrically convergent
series for zeta(2), zeta(3) and Hurwitz zeta(3, a) with digit-certified
decimal output.
"""

from .exact import (
    ROUND_HALF_EVEN,
    ROUND_TRUNCATE,
    DecimalRendering,
    Enclosure,
    format_rational,
    parse_rational,
    to_decimal,
)
from .hgterm import (
    TermError,
    TermSequence,
    q_limit_check,
    q_pochhammer,
    rising_factorial,
)
from . import catalog, markov

__version__ = "0.1.0"

__all__ = [
    "DecimalRendering", "Enclosure", "ROUND_HALF_EVEN", "ROUND_TRUNCATE",
    "TermError", "TermSequence", "catalog", "format_rational", "markov",
    "parse_rational", "q_limit_check", "q_pochhammer", "rising_factorial",
    "to_decimal",
]
