"""Property-guided scenario search (ROADMAP item 3).

This package hunts for scenarios the paper's guarantees do *not* survive:
executions where an invariant from :mod:`repro.analysis.properties` breaks
(safety counterexamples), or where round counts blow up (worst-case
inputs).  It is the adversarial complement of the declarative sweeps —
instead of enumerating a grid, it *mutates* :class:`~repro.api.ScenarioSpec`
values toward trouble.

The pipeline: mutate → validate-small → confirm-large
-----------------------------------------------------

1. **Mutate.**  :class:`~repro.search.mutate.SpecMutator` applies small,
   registry-aware edits to a spec — reseeding, swapping the delay model
   (including the heavy-tail/jittered models), jittering delay
   parameters, switching the adversary strategy, resizing ``n``/``f``,
   redrawing inputs.  Every edit produces a *valid* spec (it respects
   each protocol's declared capabilities), and the whole op vocabulary is
   exposed as :data:`~repro.search.mutate.MUTATION_OPS` so the
   Hypothesis-stateful test layer can drive exactly the ops the search
   uses.  Mutation is driven by a seeded generator: a search is replayable
   from ``(base spec, seed)`` alone.

2. **Validate small.**  Candidates run at small ``n`` (cheap), under
   payload accounting, in batches fanned out over worker processes
   (``jobs=``) — mutation happens between generations through one seeded
   rng in the parent, so results are bit-identical at any parallelism.
   Each candidate is measured once
   (:func:`~repro.search.score.evaluation_row`) and ranked by the chosen
   objective (:data:`~repro.search.score.OBJECTIVES`): property
   violations, worst-case rounds, or message volume.  Violations become
   *candidate* findings only.

3. **Confirm.**  Per biroclick's staged supervisor discipline, a candidate
   is reported only after a confirmation re-run reproduces its violations,
   and after it has been re-run at the larger sizes in ``escalate_n``
   (escalation results are recorded either way: a violation that vanishes
   at scale is still a finding, but the report says so).

Store persistence contract
--------------------------

When a :class:`~repro.search.harness.ScenarioSearch` is given a
:class:`repro.store.RunStore`, every *candidate evaluation* is persisted
under its content-addressed run key (with its measurement row under the
:func:`~repro.search.score.evaluation_row` label), so repeating a search
against the same store re-executes nothing — the run-key cache is the
dedupe and the resume mechanism in one.  The confirmation re-run of a
finding runs under the same payload accounting, so
:func:`repro.store.record_from_outcome` rewrites the very record the
evaluation stored — full outputs, decisions and per-round metrics —
under the standard content-addressed run key (spec digest ‖ code
version), and adds a finding row under the ``row_fn`` label
:data:`~repro.search.harness.FINDING_ROW_FN`.
Counterexamples are therefore first-class stored runs: they are found by
``store.query(spec_digest=...)``, and
:func:`~repro.search.harness.replay_run` re-executes a stored
counterexample from its persisted spec and checks the outputs and round
count are **bit-identical** to what the store holds.
"""

from .harness import (
    FINDING_ROW_FN,
    Finding,
    ScenarioSearch,
    SearchResult,
    applicable_engines,
    replay_run,
)
from .mutate import MUTATION_OPS, SpecMutator
from .score import (
    OBJECTIVES,
    PropertyViolation,
    evaluate_outcome,
    evaluation_row,
    score_outcome,
    score_row,
)

__all__ = [
    "FINDING_ROW_FN",
    "Finding",
    "MUTATION_OPS",
    "OBJECTIVES",
    "PropertyViolation",
    "ScenarioSearch",
    "SearchResult",
    "SpecMutator",
    "applicable_engines",
    "evaluate_outcome",
    "evaluation_row",
    "replay_run",
    "score_outcome",
    "score_row",
]
