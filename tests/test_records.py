"""The pipeline's records are named tuples: immutable values, equal and hashed by their fields."""

from functools import cache

import pytest

from mckay_moduli import (
    build_group,
    build_quiver,
    distinguished_rep,
    incidence_matrices,
    moduli_fan,
    theta_polyhedron,
)

THETA = (-2, 1, 1)
W = (1, 2, 2)


@cache
def _records():
    """One instance of each record, from a run of the pipeline on 1/3(1,1,1)."""
    group = build_group([3], [[1, 1, 1]])
    quiver = build_quiver(group)
    tp = moduli_fan(theta_polyhedron(quiver, THETA), charts_bound=2)
    return {
        "AbelianGroupData": group,
        "Arrow": quiver.arrows[0],
        "IncidenceData": incidence_matrices(quiver),
        "ThetaPolyhedron": tp,
        "ChartReport": tp.charts[0],
        "DistinguishedRep": distinguished_rep(quiver, THETA, W),
        "HPolyhedron": tp.h,
        "VPolyhedron": tp.v,
        "Fan": tp.fan,
    }


@pytest.mark.parametrize(
    "name",
    [
        "AbelianGroupData",
        "Arrow",
        "IncidenceData",
        "ThetaPolyhedron",
        "ChartReport",
        "DistinguishedRep",
        "HPolyhedron",
        "VPolyhedron",
        "Fan",
    ],
)
def test_record_is_a_frozen_value(name):
    record = _records()[name]
    assert type(record).__name__ == name and isinstance(record, tuple)
    twin = type(record)(**record._asdict())
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
