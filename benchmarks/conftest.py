"""Shared benchmark fixtures.

Every benchmark regenerates one of the paper's tables or figures (the
module docstring names which).  Results are printed and archived in
``benchmarks/results/`` (git-ignored).

Scaling: simulation benchmarks use a 1/128-scaled refresh window with
all thresholds scaled consistently (``DramSpec.scaled``); hardware
cost and security benchmarks run at full paper scale (they are
analytical).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.harness.runner import HarnessConfig

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def save_report():
    """Print a report block and archive it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        banner = f"\n===== {name} =====\n{text}\n"
        print(banner)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _save


@pytest.fixture(scope="session")
def sim_hcfg():
    """Scaled configuration for simulation benchmarks (NRH=32K point)."""
    return HarnessConfig(
        scale=128.0,
        paper_nrh=32768,
        instructions_per_thread=90_000,
        warmup_ns=50_000.0,
    )


@pytest.fixture(scope="session")
def quick_hcfg():
    """Smaller configuration for the cheaper simulation benchmarks."""
    return HarnessConfig(
        scale=128.0,
        paper_nrh=32768,
        instructions_per_thread=60_000,
        warmup_ns=40_000.0,
    )
