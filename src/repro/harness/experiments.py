"""Experiment definitions E1–E10 as declarative sweeps over :mod:`repro.api`.

The paper is a theory paper without numerical tables or figures, so the
"evaluation" we regenerate is the simulation-level validation suite listed
in ``DESIGN.md`` §2: every theorem becomes an experiment that measures, over
many seeds, adversaries and system sizes, whether the claimed property held
and what the relevant complexity (rounds, messages, range reduction, …)
was.

Each experiment is an :class:`ExperimentDefinition` — a set of
:class:`~repro.api.SweepSpec` grids, a module-level *row function* that
turns one executed scenario into a measurement row through
:mod:`repro.analysis.properties`, an aggregation recipe (``group_by`` +
``metrics``) and the paper claim, as text and as a check over the per-run
rows.  The :class:`~repro.api.SweepRunner`
expands the grids, executes every scenario (optionally across a process
pool via ``jobs``), and the rows aggregate through
:func:`repro.analysis.stats.aggregate_rows` into the tables recorded in
``EXPERIMENTS.md``.  Row functions run inside the worker processes, so
they must stay module-level (picklable by reference).

All experiments accept ``scale`` (a small positive integer) so the same
definitions serve quick test runs (``scale=1``, where the tier-1 suite
checks every claim run by run) and full reproduction runs, and ``seed`` so
whole sweeps can be re-drawn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..analysis.properties import (
    agreement,
    chain_prefix,
    holds,
    parallel_validity,
    range_containment,
    range_reduction,
    rb_correctness,
    rb_relay,
    rb_unforgeability,
    rotor_good_round,
    termination,
    validity,
)
from ..analysis.stats import aggregate_rows
from ..analysis.tables import render_markdown_table, render_table
from ..api import ScenarioOutcome, SweepRunner, SweepSpec
from ..store import (
    DEFAULT_SEGMENT_EVENTS,
    SCHEMA_VERSION,
    ResumableSweep,
    RunStore,
    canonical_dumps,
    sweep_digest,
    to_jsonable,
)

__all__ = [
    "ExperimentResult",
    "ExperimentDefinition",
    "EXPERIMENTS",
    "run_experiment",
    "all_experiment_ids",
]


@dataclass
class ExperimentResult:
    """The outcome of one experiment: aggregated rows plus context."""

    experiment_id: str
    title: str
    claim: str
    rows: list[dict[str, object]] = field(default_factory=list)
    notes: str = ""
    #: Digest over the expanded scenario specs (see
    #: :func:`repro.store.digest.sweep_digest`): the same value the run
    #: store derives its keys from, so a JSON report identifies exactly
    #: which sweep produced it.
    sweep_digest: str = ""
    #: The per-run rows the claim checks read; not part of any report.
    run_rows: list[dict[str, object]] = field(
        default_factory=list, repr=False, compare=False
    )

    def to_text(self) -> str:
        header = f"[{self.experiment_id}] {self.title}\nclaim: {self.claim}"
        body = render_table(self.rows)
        notes = f"\nnotes: {self.notes}" if self.notes else ""
        return f"{header}\n{body}{notes}\n"

    def to_markdown(self) -> str:
        parts = [
            f"### {self.experiment_id} — {self.title}",
            "",
            f"*Paper claim:* {self.claim}",
            "",
            render_markdown_table(self.rows),
        ]
        if self.notes:
            parts.extend(["", f"*Notes:* {self.notes}"])
        return "\n".join(parts)

    def as_dict(self) -> dict[str, object]:
        """A plain, JSON-serialisable representation.

        Shares the run store's serialization contract: the schema version,
        the sweep digest and row values coerced through
        :func:`repro.store.serialize.to_jsonable` — one canonical path,
        so reports and store rows never disagree on a value's spelling.
        """

        return {
            "schema_version": SCHEMA_VERSION,
            "experiment_id": self.experiment_id,
            "title": self.title,
            "claim": self.claim,
            "notes": self.notes,
            "sweep_digest": self.sweep_digest,
            "rows": [to_jsonable(row) for row in self.rows],
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        """Machine-readable results; stable key order so reports diff cleanly."""

        return canonical_dumps(self.as_dict(), indent=indent)


@dataclass(frozen=True)
class ExperimentDefinition:
    """One declarative experiment: sweeps + row extraction + aggregation."""

    experiment_id: str
    title: str
    claim: str
    #: The claim as a check over the per-run rows: each part some run
    #: broke, named; ``[]`` when the claim holds.
    claim_check: Callable[[list[dict]], list[str]]
    sweeps: Callable[[int, int], Sequence[SweepSpec]]
    row_fn: Callable[[ScenarioOutcome], dict]
    group_by: tuple[str, ...]
    metrics: tuple[str, ...]
    notes: str = ""
    default_seed: int = 0
    post: Callable[[list[dict]], list[dict]] | None = None

    def run(
        self,
        *,
        scale: int = 1,
        seed: int | None = None,
        jobs: int = 1,
        store: RunStore | None = None,
        segment_events: int = DEFAULT_SEGMENT_EVENTS,
    ) -> ExperimentResult:
        base_seed = self.default_seed if seed is None else seed
        sweeps = list(self.sweeps(scale, base_seed))
        if store is not None:
            rows = ResumableSweep(
                store, jobs=jobs, segment_events=segment_events
            ).run(
                sweeps, row_fn=self.row_fn
            ).rows
        else:
            rows = SweepRunner(jobs=jobs).run(sweeps, row_fn=self.row_fn)
        aggregated = aggregate_rows(
            rows, group_by=list(self.group_by), metrics=list(self.metrics)
        )
        if self.post is not None:
            aggregated = self.post(aggregated)
        return ExperimentResult(
            experiment_id=self.experiment_id,
            title=self.title,
            claim=self.claim,
            rows=aggregated,
            notes=self.notes,
            sweep_digest=sweep_digest(
                spec for sweep in sweeps for spec in sweep.scenarios()
            ),
            run_rows=rows,
        )


def _sizes(scale: int, base: tuple[int, ...], extra: tuple[int, ...]) -> tuple[int, ...]:
    return base + (extra if scale > 1 else ())


# ---------------------------------------------------------------------------
# Claim checks over the per-run rows
# ---------------------------------------------------------------------------

# Theorem 4 halves the range; the contraction is a float power (worst run
# 0.5 + 1.2e-14), hence the slack.  The other bounds are slack the
# implementation chose, not paper constants (worst runs 1.75, 1.5, 22 inside).
_HALVING, _FLOAT_SLACK = 0.5, 1e-9
_ROTOR_ROUNDS_PER_N = 3  # E2: Theorem 2's O(n) termination
_RB_MESSAGE_RATIO = 2  # E9: id-only over classic reliable-broadcast messages
_ROUNDS_FACTOR, _ROUNDS_EXTRA = 3, 10  # E9: id-only <= 3·classic + 10 rounds


def _every(rows: list[dict], *columns: str, where: str = "", **checks) -> list[str]:
    """The claim parts some run broke, with their counts.  A part is a boolean
    column (a run without it has no subject for it) or a named predicate."""

    checks = {**{c: (lambda row, c=c: row.get(c, True)) for c in columns}, **checks}
    return [
        f"{name}{where}: broken in {broken} of {len(rows)} runs"
        for name, ok in checks.items()
        if (broken := sum(1 for row in rows if not ok(row)))
    ]


def _some(rows: list[dict], part: str, broken: Callable[[dict], bool]) -> list[str]:
    """The claim part "some run is broken", failed when no run is."""

    return [] if any(map(broken, rows)) else [f"{part}: no run broke it"]


# ---------------------------------------------------------------------------
# E1 — reliable broadcast properties (Theorem 1)
# ---------------------------------------------------------------------------


def _e1_sweeps(scale: int, seed: int) -> list[SweepSpec]:
    return [
        SweepSpec(
            protocol="reliable-broadcast",
            grid={
                "n": _sizes(scale, (4, 7, 10, 13), (19, 25)),
                "adversary": ("silent", "rb-false-echo", "rb-forged-source", "replay"),
            },
            repetitions=3 * scale,
            base_seed=seed,
        )
    ]


def _e1_row(outcome: ScenarioOutcome) -> dict:
    processes = outcome.correct_processes()
    message = outcome.system.params["message"]
    source = outcome.system.params["source"]
    return {
        "n": outcome.spec.n,
        "f": outcome.spec.f,
        "adversary": outcome.spec.adversary,
        "correctness": holds(rb_correctness(processes, message, source)),
        "relay": holds(rb_relay(processes)),
        "no_forgery": holds(
            rb_unforgeability(processes, message, source, outcome.system.byzantine_ids)
        ),
        "accept_round": max(
            (rec.round_index for p in processes.values() for rec in p.accepted),
            default=0,
        ),
        "messages": outcome.messages,
    }


# ---------------------------------------------------------------------------
# E2 — rotor-coordinator (Theorem 2)
# ---------------------------------------------------------------------------


def _e2_sweeps(scale: int, seed: int) -> list[SweepSpec]:
    return [
        SweepSpec(
            protocol="rotor-coordinator",
            grid={
                "n": _sizes(scale, (4, 7, 10, 13), (19, 25)),
                "adversary": (
                    "silent",
                    "rotor-candidate-stuffer",
                    "rotor-split-echo",
                    "rotor-usurper",
                ),
            },
            repetitions=3 * scale,
            base_seed=seed,
        )
    ]


def _e2_row(outcome: ScenarioOutcome) -> dict:
    processes = outcome.correct_processes()
    return {
        "n": outcome.spec.n,
        "f": outcome.spec.f,
        "adversary": outcome.spec.adversary,
        # The rotor terminates by halting: the run met its ``halted`` stop
        # condition before the round limit.
        "terminated": outcome.result.stop_reason == "stop_condition",
        "good_round": holds(rotor_good_round(processes)),
        "rounds": outcome.rounds,
        "rounds_over_n": outcome.rounds / outcome.spec.n,
        "selections": max(len(p.selection_history) for p in processes.values()),
    }


# ---------------------------------------------------------------------------
# E3 — consensus (Theorem 3)
# ---------------------------------------------------------------------------


def _e3_sweeps(scale: int, seed: int) -> list[SweepSpec]:
    return [
        SweepSpec(
            protocol="consensus",
            grid={
                "n": _sizes(scale, (4, 7, 10, 13), (16, 19)),
                "adversary": (
                    "silent",
                    "consensus-split-vote",
                    "consensus-strongprefer-spoofer",
                    "rotor-usurper",
                    "crash",
                ),
                "input_params.ones_fraction": (0.0, 0.5, 1.0),
            },
            repetitions=2 * scale,
            base_seed=seed,
        )
    ]


def _e3_row(outcome: ScenarioOutcome) -> dict:
    outputs = outcome.outputs()
    decision_round = outcome.decision_rounds_exhausted()
    return {
        "n": outcome.spec.n,
        "f": outcome.spec.f,
        "adversary": outcome.spec.adversary,
        "ones_fraction": float(outcome.spec.input_params["ones_fraction"]),
        "agreement": holds(termination(outputs), agreement(outputs)),
        "validity": holds(validity(outputs, outcome.system.params["inputs"])),
        "rounds": decision_round,
        "rounds_over_f": decision_round / max(outcome.spec.f, 1),
        "messages": outcome.messages,
    }


# ---------------------------------------------------------------------------
# E4 — approximate agreement convergence (Theorem 4)
# ---------------------------------------------------------------------------


def _e4_sweeps(scale: int, seed: int) -> list[SweepSpec]:
    return [
        SweepSpec(
            protocol="iterated-approximate-agreement",
            grid={
                "n": _sizes(scale, (4, 10, 16), (31, 49)),
                "adversary": ("silent", "approx-outlier", "equivocate-value"),
            },
            params={"iterations": 6},
            max_rounds=9,
            repetitions=3 * scale,
            base_seed=seed,
        )
    ]


def _e4_row(outcome: ScenarioOutcome) -> dict:
    inputs = outcome.system.params["inputs"]
    iterations = int(outcome.system.params["iterations"])
    procs = outcome.correct_processes()
    outputs = {i: p.output for i, p in procs.items()}
    in_range = max(inputs.values()) - min(inputs.values())
    histories = [p.history for p in procs.values()]
    per_iter_ranges = [
        max(h[k] for h in histories) - min(h[k] for h in histories)
        for k in range(iterations + 1)
    ]
    final_range = per_iter_ranges[-1]
    ratio = (final_range / in_range) ** (1 / iterations) if in_range else 0.0
    return {
        "n": outcome.spec.n,
        "f": outcome.spec.f,
        "adversary": outcome.spec.adversary,
        "in_range": in_range,
        "out_range": final_range,
        "per_round_contraction": ratio,
        "outputs_in_range": holds(
            termination(outputs), range_containment(outputs, inputs)
        ),
        "range_reduced": holds(termination(outputs), range_reduction(outputs, inputs)),
    }


# ---------------------------------------------------------------------------
# E5 — the resiliency boundary n > 3f
# ---------------------------------------------------------------------------


def _e5_sweeps(scale: int, seed: int) -> list[SweepSpec]:
    n = 12
    return [
        SweepSpec(
            protocol="consensus",
            grid={
                "n": (n,),
                "f": tuple(range(0, n // 2 + 1)),
                "adversary": ("consensus-split-vote",),
            },
            input_params={"ones_fraction": 0.5},
            max_rounds=80,
            repetitions=3 * scale,
            base_seed=seed,
        )
    ]


def _e5_row(outcome: ScenarioOutcome) -> dict:
    outputs = outcome.outputs()
    return {
        "n": outcome.spec.n,
        "f": outcome.spec.f,
        "resilient_config": outcome.spec.n > 3 * outcome.spec.f,
        "adversary": outcome.spec.adversary,
        "agreement": holds(termination(outputs), agreement(outputs)),
        "validity": holds(validity(outputs, outcome.system.params["inputs"])),
    }


def _e5_claim(rows: list[dict]) -> list[str]:
    inside = [row for row in rows if row["resilient_config"]]
    outside = [row for row in rows if not row["resilient_config"]]
    return _every(inside, "agreement", "validity", where=" (n > 3f)") + _some(
        outside, "n <= 3f", lambda row: not (row["agreement"] and row["validity"])
    )


# ---------------------------------------------------------------------------
# E6 — synchrony is necessary (Lemmas 14/15)
# ---------------------------------------------------------------------------

_E6_MODELS = {
    "partition": "asynchronous",
    "bounded-unknown": "semi-synchronous",
    "synchronous": "synchronous-control",
}


# Section IX: with n and f unknown, consensus is impossible without
# synchrony (Lemma 14: asynchronous; Lemma 15: a delay bound exists but is
# unknown).  Both proofs build the execution swept here: all-correct
# consensus, group A holding input 1 and group B input 0, each group's view
# indistinguishable from a system without the other, because cross-group
# messages are delayed forever (``partition``) or past both groups' decision
# (``bounded-unknown``, Δ = 40).  Under synchronous delivery the same split
# inputs reach agreement: the loss of synchrony causes the disagreement.
def _e6_sweeps(scale: int, seed: int) -> list[SweepSpec]:
    return [
        SweepSpec(
            protocol="consensus",
            grid={"delay": ("partition", "bounded-unknown", "synchronous")},
            n=8,
            f=0,
            inputs="split",
            input_params={"sizes": (4, 4), "values": (1, 0)},
            delay_params={"sizes": (4, 4), "delta": 40},
            max_rounds=80,
            repetitions=5 * scale,
            base_seed=seed,
        )
    ]


def _e6_row(outcome: ScenarioOutcome) -> dict:
    outputs = outcome.outputs()
    decided = termination(outputs)
    return {
        "model": _E6_MODELS[outcome.spec.delay],
        "all_decided": holds(decided),
        "disagreement": not holds(agreement(outputs)),
        "agreement": holds(decided, agreement(outputs)),
        "rounds": outcome.rounds,
    }


def _e6_claim(rows: list[dict]) -> list[str]:
    control = [row for row in rows if row["model"] == "synchronous-control"]
    partitioned = [row for row in rows if row["model"] != "synchronous-control"]
    return _every(
        partitioned, "all_decided", "disagreement", where=" (no synchrony)"
    ) + _every(control, "agreement", where=" (synchronous)")


# ---------------------------------------------------------------------------
# E7 — parallel consensus (Theorem 5)
# ---------------------------------------------------------------------------


def _e7_sweeps(scale: int, seed: int) -> list[SweepSpec]:
    return [
        SweepSpec(
            protocol="parallel-consensus",
            grid={
                "n": (7, 10, 13),
                "k_instances": (1, 4, 8) + ((16,) if scale > 1 else ()),
                "adversary": ("silent", "consensus-split-vote", "random-noise"),
            },
            repetitions=2 * scale,
            base_seed=seed,
        )
    ]


def _e7_row(outcome: ScenarioOutcome) -> dict:
    outputs = outcome.outputs()
    decided = termination(outputs)
    return {
        "n": outcome.spec.n,
        "f": outcome.spec.f,
        "k_instances": int(outcome.spec.params["k_instances"]),
        "adversary": outcome.spec.adversary,
        "terminated": holds(decided),
        "agreement": holds(decided, agreement(outputs)),
        "validity": holds(
            decided, parallel_validity(outputs, outcome.system.params["pairs"])
        ),
        "rounds": outcome.decision_rounds_exhausted(),
        "messages": outcome.messages,
    }


# ---------------------------------------------------------------------------
# E8 — dynamic total ordering (Theorem 6)
# ---------------------------------------------------------------------------

_E8_CONFIGS = (
    ("no churn", 0.0, 0.0),
    ("mild churn", 0.10, 0.05),
    ("heavy churn", 0.25, 0.15),
)
_E8_ROUNDS = 45


def _e8_sweeps(scale: int, seed: int) -> list[SweepSpec]:
    return [
        SweepSpec(
            protocol="total-order",
            n=6,
            f=1,
            adversary="random-noise",
            churn={
                "label": label,
                "join_rate": join_rate,
                "leave_rate": leave_rate,
                "rounds": _E8_ROUNDS,
            },
            repetitions=2 * scale,
            base_seed=seed,
            seed_tags=(label,),
        )
        for label, join_rate, leave_rate in _E8_CONFIGS
    ]


def _e8_row(outcome: ScenarioOutcome) -> dict:
    schedule = outcome.system.params["schedule"]
    genesis_correct = outcome.system.correct_ids
    network = outcome.network
    chains = [network.process(i).chain for i in genesis_correct]
    # Chain-growth is a claim about nodes that keep participating: a
    # genesis node that leaves mid-run legitimately stops extending its
    # chain, so measure growth over the nodes that stayed.
    departed = {e.node_id for e in schedule.events if e.kind == "leave"}
    stayed = [i for i in genesis_correct if i not in departed]
    lengths = [len(network.process(i).chain) for i in stayed]
    row = {
        "churn": outcome.spec.churn["label"],
        "joins": sum(1 for e in schedule.events if e.kind == "join"),
        "leaves": sum(1 for e in schedule.events if e.kind == "leave"),
        "chain_prefix": holds(chain_prefix(chains)),
    }
    if lengths:
        # With every genesis correct node gone the growth claim has no
        # subject; the keys are omitted and aggregate_rows skips them.
        row["chain_grew"] = min(lengths) > 0
        row["max_chain_length"] = max(lengths)
        row["min_chain_length"] = min(lengths)
    return row


# ---------------------------------------------------------------------------
# E9 — id-only vs classic known-(n, f) baselines (Section XII)
# ---------------------------------------------------------------------------

_E9_ALGORITHMS = {
    "reliable-broadcast": "rb-idonly",
    "srikanth-toueg-broadcast": "rb-classic",
    "consensus": "cons-idonly",
    "known-f-consensus": "cons-classic",
}


def _e9_sweeps(scale: int, seed: int) -> list[SweepSpec]:
    # The same (base_seed, n, repetition) derivation across all four sweeps
    # gives every algorithm the same identifier population and Byzantine
    # placement, so the comparison is paired run by run.
    sizes = _sizes(scale, (7, 10, 13), (19,))
    broadcast = dict(grid={"n": sizes}, repetitions=2 * scale, base_seed=seed)
    return [
        SweepSpec(protocol="reliable-broadcast", adversary="silent", **broadcast),
        SweepSpec(protocol="srikanth-toueg-broadcast", adversary="silent", **broadcast),
        SweepSpec(
            protocol="consensus",
            adversary="consensus-split-vote",
            inputs="alternating",
            max_rounds=60,
            **broadcast,
        ),
        SweepSpec(
            protocol="known-f-consensus",
            adversary="consensus-split-vote",
            inputs="alternating",
            max_rounds=60,
            **broadcast,
        ),
    ]


def _e9_row(outcome: ScenarioOutcome) -> dict:
    outputs = outcome.outputs()
    return {
        "n": outcome.spec.n,
        "f": outcome.spec.f,
        "algorithm": _E9_ALGORITHMS[outcome.spec.protocol],
        "messages": outcome.messages,
        "rounds": outcome.decision_rounds_exhausted(),
        "agreement": holds(termination(outputs), agreement(outputs)),
    }


def _e9_claim(rows: list[dict]) -> list[str]:
    # The four sweeps expand the same (n, repetition) grid in the same
    # order, so the i-th run of each algorithm makes one paired run.
    runs: dict[str, list[dict]] = {}
    for row in rows:
        runs.setdefault(row["algorithm"], []).append(row)
    consensus = [row for row in rows if row["algorithm"].startswith("cons-")]
    return _every(consensus, "agreement") + _every(
        list(zip(*(runs[algorithm] for algorithm in _E9_ALGORITHMS.values()))),
        rb_msg_ratio=lambda run: (
            run[0]["messages"] / max(run[1]["messages"], 1) < _RB_MESSAGE_RATIO
        ),
        cons_idonly_rounds=lambda run: (
            run[2]["rounds"] <= _ROUNDS_FACTOR * run[3]["rounds"] + _ROUNDS_EXTRA
        ),
    )


def _e9_pivot(rows: list[dict]) -> list[dict]:
    """Pivot per-algorithm aggregates into the paired comparison table."""

    by_config: dict[tuple, dict[str, dict]] = {}
    for row in rows:
        by_config.setdefault((row["n"], row["f"]), {})[row["algorithm"]] = row
    pivoted: list[dict] = []
    for (n, f), cells in sorted(by_config.items()):
        rb_id, rb_cl = cells["rb-idonly"], cells["rb-classic"]
        cons_id, cons_cl = cells["cons-idonly"], cells["cons-classic"]
        pivoted.append(
            {
                "n": n,
                "f": f,
                "samples": rb_id["samples"],
                "rb_idonly_msgs": rb_id["messages"],
                "rb_classic_msgs": rb_cl["messages"],
                "rb_msg_ratio": rb_id["messages"] / max(rb_cl["messages"], 1),
                "cons_idonly_rounds": cons_id["rounds"],
                "cons_classic_rounds": cons_cl["rounds"],
                "cons_idonly_agree": cons_id["agreement"],
                "cons_classic_agree": cons_cl["agreement"],
            }
        )
    return pivoted


# ---------------------------------------------------------------------------
# E10 — approximate agreement in a dynamic membership (Section XI)
# ---------------------------------------------------------------------------


def _e10_sweeps(scale: int, seed: int) -> list[SweepSpec]:
    iterations = 8
    return [
        SweepSpec(
            protocol="iterated-approximate-agreement",
            grid={"churn.join_fraction": (0.0, 0.2, 0.4)},
            n=13,
            f=4,
            adversary="approx-outlier",
            params={"iterations": iterations},
            churn={"pool": 4, "join_start": 3, "leave_round": 5},
            max_rounds=iterations + 4,
            stop="never",
            repetitions=3 * scale,
            base_seed=seed,
        )
    ]


def _e10_row(outcome: ScenarioOutcome) -> dict:
    inputs = outcome.system.params["inputs"]
    departed = set(outcome.system.params["departed"])
    survivors = [i for i in outcome.system.correct_ids if i not in departed]
    estimates = {i: outcome.network.process(i).estimate for i in survivors}
    return {
        "churn_fraction": float(outcome.spec.churn["join_fraction"]),
        "in_range": max(inputs.values()) - min(inputs.values()),
        "out_range": max(estimates.values()) - min(estimates.values()),
        "contracted": holds(range_reduction(estimates, inputs)),
        "outputs_in_range": holds(range_containment(estimates, inputs)),
    }


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

EXPERIMENTS: dict[str, ExperimentDefinition] = {
    definition.experiment_id: definition
    for definition in (
        ExperimentDefinition(
            experiment_id="E1",
            title="Reliable broadcast in the id-only model",
            claim="All three reliable-broadcast properties hold for every n > 3f.",
            claim_check=lambda rows: _every(rows, "correctness", "relay", "no_forgery"),
            sweeps=_e1_sweeps,
            row_fn=_e1_row,
            group_by=("n", "f", "adversary"),
            metrics=("correctness", "relay", "no_forgery", "accept_round", "messages"),
            notes="correctness/relay/no_forgery are rates over seeds; accept_round is the last acceptance round.",
            default_seed=7,
        ),
        ExperimentDefinition(
            experiment_id="E2",
            title="Rotor-coordinator: termination and good rounds",
            claim="Every correct node terminates in O(n) rounds and witnesses a good round first.",
            claim_check=lambda rows: _every(
                rows,
                "terminated",
                "good_round",
                rounds_over_n=lambda row: row["rounds_over_n"] < _ROTOR_ROUNDS_PER_N,
            ),
            sweeps=_e2_sweeps,
            row_fn=_e2_row,
            group_by=("n", "f", "adversary"),
            metrics=("terminated", "good_round", "rounds", "rounds_over_n", "selections"),
            notes="rounds_over_n staying bounded (~1) across n demonstrates the O(n) claim.",
            default_seed=11,
        ),
        ExperimentDefinition(
            experiment_id="E3",
            title="Consensus in the id-only model",
            claim="Agreement and validity hold and termination takes O(f) rounds.",
            claim_check=lambda rows: _every(rows, "agreement", "validity"),
            sweeps=_e3_sweeps,
            row_fn=_e3_row,
            group_by=("n", "f", "adversary"),
            metrics=("agreement", "validity", "rounds", "rounds_over_f", "messages"),
            notes="rounds counts until the last correct node decides (includes the 2 init rounds).",
            default_seed=13,
        ),
        ExperimentDefinition(
            experiment_id="E4",
            title="Approximate agreement convergence",
            claim="Outputs stay inside the correct input range and the range halves (contraction ≤ 0.5) every iteration.",
            claim_check=lambda rows: _every(
                rows,
                "outputs_in_range",
                "range_reduced",
                per_round_contraction=lambda row: (
                    row["per_round_contraction"] <= _HALVING + _FLOAT_SLACK
                ),
            ),
            sweeps=_e4_sweeps,
            row_fn=_e4_row,
            group_by=("n", "f", "adversary"),
            metrics=(
                "in_range",
                "out_range",
                "per_round_contraction",
                "outputs_in_range",
                "range_reduced",
            ),
            notes="per_round_contraction is the geometric mean range contraction per iteration (paper predicts ≤ 0.5).",
            default_seed=17,
        ),
        ExperimentDefinition(
            experiment_id="E5",
            title="Resiliency boundary sweep (consensus, n = 12)",
            claim="Agreement/validity hold whenever n > 3f; beyond the bound the adversary can break them.",
            claim_check=_e5_claim,
            sweeps=_e5_sweeps,
            row_fn=_e5_row,
            group_by=("n", "f", "resilient_config"),
            metrics=("agreement", "validity"),
            notes="Rows with resilient_config = no are outside the paper's assumptions; degraded rates there are expected.",
            default_seed=19,
        ),
        ExperimentDefinition(
            experiment_id="E6",
            title="Synchrony necessity (Lemma 14/15 constructions)",
            claim="Without synchrony the partition executions terminate in disagreement; the synchronous control agrees.",
            claim_check=_e6_claim,
            sweeps=_e6_sweeps,
            row_fn=_e6_row,
            group_by=("model",),
            metrics=("all_decided", "disagreement", "agreement", "rounds"),
            default_seed=23,
        ),
        ExperimentDefinition(
            experiment_id="E7",
            title="Parallel consensus over k instances",
            claim="Validity, agreement and termination hold for every instance regardless of k.",
            claim_check=lambda rows: _every(rows, "terminated", "agreement", "validity"),
            sweeps=_e7_sweeps,
            row_fn=_e7_row,
            group_by=("n", "k_instances", "adversary"),
            metrics=("terminated", "agreement", "validity", "rounds", "messages"),
            default_seed=29,
        ),
        ExperimentDefinition(
            experiment_id="E8",
            title="Dynamic total ordering under churn",
            claim="Chains at correct nodes are prefixes of one another and keep growing while events are submitted.",
            claim_check=lambda rows: _every(rows, "chain_prefix", "chain_grew"),
            sweeps=_e8_sweeps,
            row_fn=_e8_row,
            group_by=("churn",),
            metrics=(
                "joins",
                "leaves",
                "chain_prefix",
                "chain_grew",
                "max_chain_length",
                "min_chain_length",
            ),
            notes=f"{_E8_ROUNDS} protocol rounds; genesis nodes submit one event per round.",
            default_seed=31,
        ),
        ExperimentDefinition(
            experiment_id="E9",
            title="Id-only algorithms vs classic known-(n, f) baselines",
            claim="Removing the knowledge of n and f leaves message/round complexity essentially unchanged (small constant factors).",
            claim_check=_e9_claim,
            sweeps=_e9_sweeps,
            row_fn=_e9_row,
            group_by=("n", "f", "algorithm"),
            metrics=("messages", "rounds", "agreement"),
            notes="The id-only consensus pays a constant-factor round overhead for the rotor-coordinator round in each phase.",
            default_seed=37,
            post=_e9_pivot,
        ),
        ExperimentDefinition(
            experiment_id="E10",
            title="Iterated approximate agreement under churn",
            claim="The correct-value range keeps contracting under joins/leaves as long as n > 3f each round; joiners can widen it only through their inputs.",
            claim_check=lambda rows: _every(rows, "contracted", "outputs_in_range"),
            sweeps=_e10_sweeps,
            row_fn=_e10_row,
            group_by=("churn_fraction",),
            metrics=("in_range", "out_range", "contracted", "outputs_in_range"),
            notes="Joining nodes draw inputs from the original range, so the surviving originals keep converging.",
            default_seed=41,
        ),
    )
}


def all_experiment_ids() -> list[str]:
    return list(EXPERIMENTS)


def run_experiment(
    experiment_id: str,
    *,
    scale: int = 1,
    seed: int | None = None,
    jobs: int = 1,
    store: RunStore | None = None,
    segment_events: int = DEFAULT_SEGMENT_EVENTS,
) -> ExperimentResult:
    """Run one experiment by id (e.g. ``"E3"``).

    ``seed`` re-draws the whole sweep (defaults to the experiment's
    canonical seed); ``jobs`` fans the scenarios out over worker processes
    with bit-identical aggregated results.  Passing a ``store`` makes the
    sweep resumable: scenarios already persisted under the current code
    version are served from the store instead of re-executing, and fresh
    scenarios are persisted as they complete; ``segment_events`` sets the
    trace-segment granularity for traced scenarios persisted that way.
    """

    try:
        definition = EXPERIMENTS[experiment_id]
    except KeyError as exc:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {', '.join(EXPERIMENTS)}"
        ) from exc
    return definition.run(
        scale=scale,
        seed=seed,
        jobs=jobs,
        store=store,
        segment_events=segment_events,
    )
