"""The series-transformation engine: telescoping pairs, certificates,
the worked q-series instance, Schellbach's limit form, and the stepwise
multiplier solver."""

from .pairs import (
    EvaluationError,
    GridFunction,
    MarkovPair,
    PairCheck,
    RectangleSums,
    Scale,
    check_pair_condition,
    green_rectangle,
)
from .certificates import (
    Certificate,
    FailurePoint,
    Verdict,
    pair_from_certificate,
    verify_certificate,
)
from .phi32 import (
    SAMPLE_TUPLES,
    ThreePhiTwo,
    coefficient_residuals,
    make_certificate,
    markov_form_term,
    markov_param_map,
)
from .schellbach import (
    SchellbachParams,
    schellbach_term,
)
from .solver import (
    FAMILIES,
    FORM_U1,
    FORM_U2,
    FORM_U3,
    MultiplierData,
    SolveResult,
    SolverFamily,
    f4f3_family,
    phi32_family,
    solve_multipliers_stepwise,
    well_poised_family,
)
from .sampling import Lcg, sample_parameter_tuples

__all__ = [
    "Certificate", "EvaluationError", "FailurePoint", "FAMILIES", "FORM_U1",
    "FORM_U2", "FORM_U3", "GridFunction", "Lcg", "MarkovPair", "MultiplierData",
    "PairCheck", "RectangleSums", "SAMPLE_TUPLES", "Scale", "SchellbachParams",
    "SolveResult", "SolverFamily", "ThreePhiTwo",
    "Verdict", "check_pair_condition", "coefficient_residuals",
    "f4f3_family", "green_rectangle", "make_certificate",
    "markov_form_term", "markov_param_map", "pair_from_certificate",
    "phi32_family", "sample_parameter_tuples", "schellbach_term",
    "solve_multipliers_stepwise", "verify_certificate",
    "well_poised_family",
]
