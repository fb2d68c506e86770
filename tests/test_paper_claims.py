"""The paper's claims, checked run by run.

Each E1–E10 :class:`~repro.harness.ExperimentDefinition` holds its claim
as a check over the per-run rows (``claim_check``); A1 and A2 hold theirs
beside their functions in :mod:`repro.harness.ablations`.  All twelve run
here at scale 1, so a regression that breaks a claim in a single run
fails the tier-1 suite, and the planted regressions below show that a
broken claim is named.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import pytest

from repro.api import SweepRunner
from repro.core import consensus
from repro.harness import EXPERIMENTS, run_experiment
from repro.harness.ablations import (
    a1_claim,
    a1_substitution_rule,
    a2_claim,
    a2_misconfigured_fault_bound,
)

CLAIMS = {
    **{
        experiment_id: (partial(run_experiment, experiment_id), definition.claim_check)
        for experiment_id, definition in EXPERIMENTS.items()
    },
    "A1": (a1_substitution_rule, a1_claim),
    "A2": (a2_misconfigured_fault_bound, a2_claim),
}


@pytest.mark.parametrize("claim_id", list(CLAIMS))
def test_paper_claim_holds_in_every_run(claim_id):
    run, claim_check = CLAIMS[claim_id]
    rows = run(scale=1).run_rows
    assert rows
    assert claim_check(rows) == []


class TestPlantedRegressionsFailANamedClaim:
    """E3's scale-1 sweep with a known-unsound change must fail E3's
    agreement claim, naming it."""

    E3 = EXPERIMENTS["E3"]

    def e3_rows(self, **params):
        sweeps = [
            dataclasses.replace(sweep, params={**sweep.params, **params})
            for sweep in self.E3.sweeps(1, self.E3.default_seed)
        ]
        return SweepRunner(jobs=1).run(sweeps, row_fn=self.E3.row_fn)

    def test_broad_substitution_breaks_agreement(self):
        failures = self.E3.claim_check(self.e3_rows(substitution="broad"))
        assert any(failure.startswith("agreement:") for failure in failures), failures

    def test_dropping_the_linger_phase_breaks_agreement(self, monkeypatch):
        # Runs in this process (jobs=1), so the patched constant applies.
        monkeypatch.setattr(consensus, "LINGER_PHASES", 0)
        failures = self.E3.claim_check(self.e3_rows())
        assert any(failure.startswith("agreement:") for failure in failures), failures
