"""Correctness checks run on every trial; their failures feed ``failed``.

Each check returns a :class:`Verdict`: the ids of the operations it failed
and one message per distinct problem.  A broken trial-level invariant
(conservation, replay, training) fails every operation of the trial, because
none of the trial's numbers can be trusted then.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set

__all__ = [
    "Verdict",
    "accounting",
    "check_exactly_once",
    "check_conservation",
    "check_against_oracle",
    "check_same_routing",
    "check_replay",
    "check_bytes_reconcile",
    "check_training",
]


@dataclass
class Verdict:
    """Failed operation ids plus a human-readable reason for each problem."""

    failed: Set[int] = field(default_factory=set)
    messages: List[str] = field(default_factory=list)

    def fail(self, ids: Iterable[int], message: str) -> None:
        self.failed.update(ids)
        self.messages.append(message)

    def merge(self, other: "Verdict") -> "Verdict":
        self.failed |= other.failed
        self.messages.extend(other.messages)
        return self

    @property
    def ok(self) -> bool:
        return not self.failed and not self.messages


def accounting(responses) -> List[tuple]:
    """Per-request accounting compared byte for byte between replays
    (predictions, routing, every resilience flag, time and bytes)."""
    return sorted(
        (
            r.request_id,
            r.prediction,
            r.exit_index,
            r.exit_name,
            r.shed,
            r.degraded,
            r.retries,
            r.hedged,
            r.deadline_exceeded,
            r.completion_time,
            r.bytes_transferred,
        )
        for r in responses
    )


def check_exactly_once(offered_ids: Sequence[int], responses) -> Verdict:
    """Every offered id is answered exactly once, and nothing else is."""
    verdict = Verdict()
    counts = Counter(r.request_id for r in responses)
    offered = set(offered_ids)
    missing = sorted(offered - set(counts))
    duplicated = sorted(i for i, n in counts.items() if n > 1)
    unknown = sorted(set(counts) - offered)
    if missing:
        verdict.fail(missing, f"{len(missing)} offered request(s) never answered, e.g. id {missing[0]}")
    if duplicated:
        verdict.fail(duplicated, f"{len(duplicated)} request(s) answered more than once, e.g. id {duplicated[0]}")
    if unknown:
        verdict.fail(unknown, f"{len(unknown)} answer(s) for ids never offered, e.g. id {unknown[0]}")
    return verdict


def check_conservation(
    offered_ids: Sequence[int], admission: Dict[str, int], resilience: Dict[str, int]
) -> Verdict:
    """``offered == accepted + rejected + shed`` and no compute on expired work."""
    verdict = Verdict()
    knocked = admission["accepted"] + admission["rejected"] + admission["shed"]
    if knocked != len(offered_ids):
        verdict.fail(
            offered_ids,
            f"admission does not conserve requests: {len(offered_ids)} offered but "
            f"accepted+rejected+shed = {knocked} ({admission})",
        )
    if resilience.get("expired_compute", 0) != 0:
        verdict.fail(
            offered_ids,
            f"{resilience['expired_compute']} expired request(s) burned a compute slot",
        )
    return verdict


def check_against_oracle(responses, sample_of, oracle, routed) -> Verdict:
    """Each answer is the oracle's prediction at the exit that produced it,
    and a request no policy touched left at the oracle's routed exit.

    ``sample_of`` maps a request id to its sample's row in the oracle;
    ``routed`` is ``oracle.route(threshold)``.
    """
    verdict = Verdict()
    wrong_prediction, wrong_exit = [], []
    for r in responses:
        row = sample_of[r.request_id]
        if r.prediction != int(oracle.predictions[r.exit_index, row]):
            wrong_prediction.append(r.request_id)
        untouched = not (r.shed or r.degraded or r.relaxed or r.deadline_exceeded)
        if untouched and r.exit_index != int(routed.exit_indices[row]):
            wrong_exit.append(r.request_id)
    if wrong_prediction:
        verdict.fail(
            wrong_prediction,
            f"{len(wrong_prediction)} answer(s) differ from the oracle's prediction "
            f"at their exit, e.g. id {wrong_prediction[0]}",
        )
    if wrong_exit:
        verdict.fail(
            wrong_exit,
            f"{len(wrong_exit)} unflagged answer(s) left at another exit than the "
            f"oracle routes them to, e.g. id {wrong_exit[0]}",
        )
    return verdict


def check_same_routing(responses, reference, what: str) -> Verdict:
    """Two runs of the same requests route and predict identically."""
    verdict = Verdict()
    expected = {r.request_id: (r.exit_index, r.prediction) for r in reference}
    differing = [
        r.request_id
        for r in responses
        if expected.get(r.request_id) != (r.exit_index, r.prediction)
    ]
    if differing:
        verdict.fail(
            differing,
            f"{len(differing)} request(s) routed or predicted differently from {what}, "
            f"e.g. id {differing[0]}",
        )
    return verdict


def check_replay(offered_ids: Sequence[int], first: List[tuple], second: List[tuple]) -> Verdict:
    """Two fresh simulated replays of one seed account every request identically."""
    verdict = Verdict()
    if first != second:
        differing = sum(1 for a, b in zip(first, second) if a != b) + abs(len(first) - len(second))
        verdict.fail(
            offered_ids,
            f"replay is not byte-identical: {differing} per-request accounting "
            "tuple(s) differ between two trials of the same seed",
        )
    return verdict


def check_bytes_reconcile(offered_ids: Sequence[int], responses, wire_bytes: float) -> Verdict:
    """Bytes charged to requests equal bytes the links carried (Eq. 1 both ways)."""
    verdict = Verdict()
    charged = sum(r.bytes_transferred for r in responses)
    if abs(charged - wire_bytes) > 1e-6 * max(1.0, wire_bytes):
        verdict.fail(
            offered_ids,
            f"per-request bytes ({charged}) do not reconcile with link bytes ({wire_bytes})",
        )
    return verdict


def check_training(
    steps: Sequence[int], losses: Sequence[float], exit_accuracy: Dict[str, float], floor: float
) -> Verdict:
    """The loss went down over the run and every exit beats the floor."""
    verdict = Verdict()
    if not (len(losses) >= 2 and losses[-1] < losses[0]):
        verdict.fail(steps, f"training loss did not decrease: {list(losses)}")
    weak = {name: value for name, value in exit_accuracy.items() if not value >= floor}
    if weak:
        verdict.fail(steps, f"exit accuracy below the {floor:.2f} floor: {weak}")
    return verdict
