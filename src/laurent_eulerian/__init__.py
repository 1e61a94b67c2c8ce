"""Exact toolkit: constant terms of Laurent polynomial powers, Groebner degrees,
toric intersection numbers, and Eulerian-number combinatorics."""

from .algebra import (
    QQ,
    ExactMatrix,
    FieldMismatchError,
    MultiPoly,
    PrimeField,
    ZeroPolynomialError,
)
from .deadline import Deadline, DeadlineExceeded
from .chow import generic_ci_degree, sparse_ci_degree
from .eulerian import (
    CircularPermutation,
    deg_Z_circle,
    eulerian,
    eulerian_bruteforce,
    gen_eulerian,
    mobius,
    orbit_decomposition,
    worpitzky_check,
)
from .groebner import (
    GroebnerBasis,
    IdealSpec,
    buchberger,
    build_ideal,
    conjecture_unit_check,
    ideal_quotient_dimension,
    normal_form,
    quotient_dimension,
)
from .laurent import constant_term_iterative, constant_term_multinomial
from .experiments import (
    decomposition_report,
    graded_quotient_dims,
    slice_monomials,
    theorem_matrix,
)

__all__ = [
    "QQ",
    "ExactMatrix",
    "FieldMismatchError",
    "MultiPoly",
    "PrimeField",
    "ZeroPolynomialError",
    "Deadline",
    "DeadlineExceeded",
    "generic_ci_degree",
    "sparse_ci_degree",
    "CircularPermutation",
    "deg_Z_circle",
    "eulerian",
    "eulerian_bruteforce",
    "gen_eulerian",
    "mobius",
    "orbit_decomposition",
    "worpitzky_check",
    "GroebnerBasis",
    "IdealSpec",
    "buchberger",
    "build_ideal",
    "conjecture_unit_check",
    "ideal_quotient_dimension",
    "normal_form",
    "quotient_dimension",
    "constant_term_iterative",
    "constant_term_multinomial",
    "decomposition_report",
    "graded_quotient_dims",
    "slice_monomials",
    "theorem_matrix",
]

__version__ = "0.1.0"
