"""The value classes built on ``gaussian.Frozen`` are immutable once constructed."""

import pytest

from qmetro import cli, fock, gaussian, protocol
from qmetro import correlations as co


def _values():
    config = protocol.ProtocolConfig(phi=0.1, n_bar=1.0)
    result = protocol.run_gaussian(config)
    return [
        gaussian.MomentVector(0.0, 0.0),
        config,
        result,
        protocol.ComparisonReport(config, result, result, 60),
        cli.SweepSpec((1.0,), (0.1,), (0.9,), "csv", None),
        co.table_row("noon", 4.0),
        co.probe_statistics(fock.noon(3, 5)),
        fock.loss(fock.coherent(1.0, 20), 0.5),
        fock.coherent(1.0, 20),
    ]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_assignment_raises(value):
    name = type(value).__slots__[0]
    before = getattr(value, name)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1.0
    assert getattr(value, name) is before
    assert repr(value).startswith(f"{type(value).__name__}({name}=")


def test_fields_are_keyword_and_positional():
    a = protocol.ProtocolConfig(0.3, 2.0, None, 0.9, 0.8, 60)
    b = protocol.ProtocolConfig(phi=0.3, n_bar=2.0, eta1=0.9, eta2=0.8, cutoff=60)
    assert [getattr(a, n) for n in a.__slots__] == [getattr(b, n) for n in b.__slots__]
    with pytest.raises(TypeError):
        protocol.ProtocolConfig(0.3, 2.0, None, 0.9, 0.8, 60, "extra")
    with pytest.raises(TypeError):
        protocol.ProtocolConfig(phi=0.3, n_bar=2.0, engine="fock")


def test_observable_moments_keep_their_validation():
    # the moments' checks live in ProbeStatistics; the fock states' checks
    # are in tests/test_fock.py::TestStateInvariants
    fields = {
        "mean_n_a": 1.0, "mean_n_b": 1.0, "var_n_a": 1.0, "var_n_b": 1.0, "cov_nn": -1.0,
        "q_a": 0.0, "q_b": 0.0, "j": -1.0, "qfi": 4.0,
    }
    co.ProbeStatistics(**fields)
    for change, match in (
        ({"var_n_b": -1e-9}, "negative number variance"),
        ({"j": -1.0 - 1e-9}, "Cauchy-Schwarz"),
        ({"qfi": -1e-9}, "negative quantum Fisher information"),
    ):
        with pytest.raises(ValueError, match=match):
            co.ProbeStatistics(**{**fields, **change})

