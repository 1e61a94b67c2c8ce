"""The spec and result records: immutable NamedTuples, one test for all."""

import importlib
import inspect
from pathlib import Path

import pytest

import laurent_eulerian
from laurent_eulerian import chow, experiments, groebner, laurent
from laurent_eulerian.eulerian import CircularPermutation, orbit_decomposition

# a record of each kind, as the program builds it
RECORDS = {
    "SparseDegree": lambda: chow.sparse_ci_degree(2, 2, 2),
    "CircularPermutation": lambda: CircularPermutation((1, 2, 0)),
    "OrbitDecomposition": lambda: orbit_decomposition(5, 2),
    "TermOrder": lambda: groebner.TermOrder(),
    "IdealSpec": lambda: groebner.IdealSpec(2, 3),
    "LaurentSpec": lambda: laurent.LaurentSpec(1, 2),
    "GenericFormSet": lambda: experiments.GenericFormSet.generate(0, [1, 2]),
    "GradedDims": lambda: experiments.graded_quotient_dims(1, 2),
    "DecompositionRow": lambda: experiments.decomposition_report(2, 2).rows[0],
    "DecompositionReport": lambda: experiments.decomposition_report(2, 2),
    "TheoremCell": lambda: experiments.degree_cell(1, 2),
    "TheoremMatrixReport": lambda: experiments.theorem_matrix(3),
}


def test_every_record_is_listed():
    modules = [importlib.import_module(f"laurent_eulerian.{path.stem}")
               for path in Path(laurent_eulerian.__file__).parent.glob("*.py")]
    found = {name for module in modules for name, cls in vars(module).items()
             if inspect.isclass(cls) and issubclass(cls, tuple)
             and cls.__module__ == module.__name__ and not name.startswith("_")}
    assert found == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.unknown = 0
