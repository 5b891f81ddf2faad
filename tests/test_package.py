import pickle

import pytest

import hquat
from hquat import functions, parser, quaternion, series, wirtinger

MODULES = (quaternion, functions, wirtinger, series, parser)


def _records():
    f = hquat.parse("exp(p)")
    p = hquat.Quaternion(0.5, 0.0, 0.2, 0.0)
    return [
        wirtinger.partials(f, p),
        wirtinger.check_holomorphy(f, p),
        wirtinger.kth_derivative(f, p, 2),
        series.exp_series().evaluate(p),
        series.ratio_test(series.exp_series()),
        series.m_test(series.exp_series(), 1.0, series.inv_factorial),
        series.maclaurin_extraction(f, 4),
    ]


def test_each_public_name_is_exported_once_and_records_are_immutable_values():
    assert len(set(hquat.__all__)) == len(hquat.__all__)
    assert hquat.__all__ == [name for m in MODULES for name in m.__all__]
    for m in MODULES:
        for name in m.__all__:
            assert getattr(hquat, name) is getattr(m, name), name
    namespace = {}
    exec("from hquat import *", namespace)
    assert set(hquat.__all__) <= set(namespace)

    records = _records()
    assert {type(r).__name__ for r in records} == {
        "PartialsTable",
        "HolomorphyReport",
        "DerivativeResult",
        "SeriesEvaluation",
        "ConvergenceReport",
        "MTestCertificate",
        "MaclaurinExtraction",
    }
    for r in records:
        with pytest.raises(AttributeError):
            setattr(r, type(r)._fields[0], None)
        copy = pickle.loads(pickle.dumps(r))
        assert type(copy) is type(r) and copy == r
