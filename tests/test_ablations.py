"""Tests for the ablation studies (DESIGN.md §4) and their regression guards."""

from __future__ import annotations

import pytest

from repro.analysis.properties import agreement, holds, termination
from repro.api import ScenarioSpec, build_system
from repro.harness import ABLATIONS
from repro.harness.ablations import a2_misconfigured_fault_bound


class TestSubstitutionRuleRegression:
    """The guard referenced from ``repro/core/consensus.py``: the narrow
    substitution rule must keep agreement in the exact configuration where
    the broad rule demonstrably loses it."""

    # Seed 0 at n = 13 is a configuration where the split-vote adversary's
    # per-destination halves line up with the correct nodes' input split.
    FAILING_CONFIG = dict(n=13, f=4, ones_fraction=0.5, seed=0)

    def _run(self, substitution):
        spec = build_system(
            ScenarioSpec(
                protocol="consensus",
                n=self.FAILING_CONFIG["n"],
                f=self.FAILING_CONFIG["f"],
                adversary="consensus-split-vote",
                seed=self.FAILING_CONFIG["seed"],
                inputs="binary",
                input_params={"ones_fraction": self.FAILING_CONFIG["ones_fraction"]},
                params={"substitution": substitution},
            )
        )
        spec.network.run(max_rounds=80)
        return {i: spec.network.process(i).output for i in spec.correct_ids}

    def test_consensus_split_vote_agreement(self):
        outputs = self._run("narrow")
        assert holds(termination(outputs), agreement(outputs))

    def test_broad_substitution_is_demonstrably_unsound(self):
        outputs = self._run("broad")
        assert not holds(termination(outputs), agreement(outputs))

    def test_invalid_substitution_mode_rejected(self):
        from repro.core.consensus import ConsensusProcess

        with pytest.raises(ValueError):
            ConsensusProcess(1, input_value=0, substitution="everything")


class TestMisconfiguredFaultBoundAblation:
    def test_a2_shape(self):
        result = a2_misconfigured_fault_bound(scale=1)
        by_f = {row["assumed_f"]: row for row in result.rows}
        # With the true bound configured the classic algorithm is safe…
        assert by_f[3]["classic_accepts_forgery"] == 0.0
        # …underestimating it is fatal…
        assert by_f[0]["classic_accepts_forgery"] == 1.0
        # …and the id-only algorithm never accepts a forgery on any of the
        # identical workloads because it has no bound to misconfigure.
        assert all(row["id_only_accepts_forgery"] == 0.0 for row in result.rows)


class TestRegistry:
    def test_ablation_registry(self):
        assert set(ABLATIONS) == {"A1", "A2"}
        for fn in ABLATIONS.values():
            assert callable(fn)
