"""Targeted tests for remaining configuration paths and invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.qc.contracts import CompositionMode, QualityContract

nonneg = st.floats(min_value=0.0, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


class TestContractEvaluationBounds:
    @given(nonneg, nonneg, st.floats(min_value=1.0, max_value=1e4),
           st.floats(min_value=0.5, max_value=100.0), nonneg, nonneg)
    @settings(max_examples=150)
    def test_step_evaluation_bounded(self, qosmax, qodmax, rtmax, uumax,
                                     rt, staleness):
        qc = QualityContract.step(qosmax, rtmax, qodmax, uumax)
        qos, qod = qc.evaluate(rt, staleness)
        assert 0.0 <= qos <= qosmax
        assert 0.0 <= qod <= qodmax
        assert qos in (0.0, qosmax)
        assert qod in (0.0, qodmax)

    @given(nonneg, nonneg, st.floats(min_value=1.0, max_value=1e4),
           st.floats(min_value=0.5, max_value=100.0), nonneg, nonneg)
    @settings(max_examples=150)
    def test_linear_evaluation_bounded(self, qosmax, qodmax, rtmax, uumax,
                                       rt, staleness):
        qc = QualityContract.linear(qosmax, rtmax, qodmax, uumax)
        qos, qod = qc.evaluate(rt, staleness)
        assert 0.0 <= qos <= qosmax
        assert 0.0 <= qod <= qodmax

    @given(nonneg, nonneg, nonneg, nonneg)
    @settings(max_examples=100)
    def test_dependent_never_exceeds_independent(self, qosmax, qodmax,
                                                 rt, staleness):
        independent = QualityContract.step(
            qosmax, 50.0, qodmax, 1.0,
            mode=CompositionMode.QOS_INDEPENDENT)
        dependent = QualityContract.step(
            qosmax, 50.0, qodmax, 1.0,
            mode=CompositionMode.QOS_DEPENDENT)
        ind = sum(independent.evaluate(rt, staleness))
        dep = sum(dependent.evaluate(rt, staleness))
        assert dep <= ind + 1e-12


class TestCLIFig9Smoke:
    def test_fig9_smoke(self, capsys):
        assert main(["fig9", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "mean rho" in out
        assert "rho over time" in out
