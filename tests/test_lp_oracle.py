"""scipy's ``linprog`` as an independent oracle for the closed-form
optimum of Table 3's LP relaxation (``solver.lp_max_activations``).

The LP is built here from scratch, not from the code under test: five
non-negative epoch counts, a budget of ``max_epochs`` epochs, and the
T2/T3 equality as two inequalities.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import BlockHammerConfig
from repro.security.constraints import AttackConstraints
from repro.security.solver import lp_max_activations, prove_safety

linprog = pytest.importorskip("scipy.optimize").linprog

TABLE7_NRH = (32768, 16384, 8192, 4096, 2048, 1024)


def linprog_max(constraints: AttackConstraints) -> float:
    a_ub = [
        [1, 1, 1, 1, 1],  # n0 + ... + n4 <= max_epochs
        [0, 0, 1, -1, 0],  # n2 - n3 <= 0
        [0, 0, -1, 1, 0],  # n3 - n2 <= 0
    ]
    b_ub = [constraints.max_epochs, 0, 0]
    result = linprog(
        [-c for c in constraints.nepmax],  # linprog minimizes
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(0, None)] * 5,
        method="highs",
    )
    assert result.success, result.message
    return -result.fun


@pytest.mark.parametrize(
    "config",
    [BlockHammerConfig.for_nrh(nrh) for nrh in TABLE7_NRH]
    # tCBF = 2 x tREFW: the misconfiguration the proof must catch.
    + [BlockHammerConfig(t_cbf_ns=128.0 * 10**6, t_refw_ns=64.0 * 10**6)],
    ids=[f"nrh{nrh}" for nrh in TABLE7_NRH] + ["tcbf-2x-trefw"],
)
def test_closed_form_equals_linprog_on_real_configs(config):
    constraints = AttackConstraints.for_config(config)
    assert lp_max_activations(constraints) == linprog_max(constraints)
    assert prove_safety(config).lp_max_activations == linprog_max(constraints)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    nepmax=st.tuples(*[st.integers(0, 50_000)] * 5),
    max_epochs=st.integers(0, 64),
)
def test_closed_form_equals_linprog(nepmax, max_epochs):
    constraints = AttackConstraints(nepmax=nepmax, max_epochs=max_epochs, target=0.0)
    assert lp_max_activations(constraints) == pytest.approx(
        linprog_max(constraints), rel=1e-9, abs=1e-6
    )


def test_closed_form_is_exact_at_a_half():
    """One T2 epoch must be paired with a T3 epoch, so a lone epoch can
    hold only half of a T2/T3 pair's activations."""
    constraints = AttackConstraints(nepmax=(0, 0, 3, 0, 0), max_epochs=1, target=0.0)
    assert lp_max_activations(constraints) == 1.5
