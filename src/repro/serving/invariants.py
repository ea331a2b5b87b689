"""Invariants the serving fabric must hold under any load, fault or budget.

One copy of the gates the serving experiments, their tests and the
benchmarks all assert: every request answered exactly once, admission
conserving what it was offered, no compute spent on expired work, every
answer's ``reason`` telling the truth, and a seeded simulated run
replaying byte for byte.

Each ``check_*`` returns the problems it found as a list of sentences
(empty when the invariant holds), so a test writes
``assert not check_exactly_once(...)`` and an experiment hands any number
of checks to :func:`require`, which raises a single ``RuntimeError``
prefixed with the experiment's own context (scenario, mode, seed).
"""

from __future__ import annotations

from collections import Counter
from typing import List, Mapping, Sequence

__all__ = [
    "ACCOUNTING_FIELDS",
    "accounting",
    "routing",
    "check_exactly_once",
    "check_conservation",
    "check_no_expired_compute",
    "check_honest_reasons",
    "check_replay",
    "require",
]

#: What a replay must reproduce per request: the answer, where it exited,
#: every admission / resilience / SLO flag, and its time and bytes.
ACCOUNTING_FIELDS = (
    "request_id",
    "prediction",
    "exit_index",
    "exit_name",
    "shed",
    "degraded",
    "retries",
    "hedged",
    "deadline_exceeded",
    "completion_time",
    "bytes_transferred",
)


def accounting(responses) -> List[tuple]:
    """Per-request :data:`ACCOUNTING_FIELDS` tuples, sorted by request id."""
    return sorted(tuple(getattr(r, name) for name in ACCOUNTING_FIELDS) for r in responses)


def routing(responses, after: float = float("-inf")) -> List[tuple]:
    """``(id, prediction, exit index, exit name)`` of every response completed
    after ``after``, sorted by request id.

    Timing-free on purpose: this is what two *different* runs (another
    backend, another worker count, a fabric re-partitioned mid-run) must
    agree on.  Entropy floats are left out: a float-weight layer (the
    mixed-precision cloud's, a CC local aggregator's projection) is a GEMM
    over its batch's rows, so batch composition can move its entropies by a
    few ULPs without moving a decision.  A binary model's entropies do not
    move, and the tests that hold them equal compare them directly.
    """
    return sorted(
        (r.request_id, r.prediction, r.exit_index, r.exit_name)
        for r in responses
        if r.completion_time > after
    )


def check_exactly_once(offered: int, responses) -> List[str]:
    """``offered`` requests went in; each is answered once, and nothing else is."""
    counts = Counter(r.request_id for r in responses)
    problems = []
    duplicated = sorted(i for i, n in counts.items() if n > 1)
    if duplicated:
        problems.append(
            f"{len(duplicated)} request(s) answered more than once, e.g. id {duplicated[0]}"
        )
    if len(counts) != offered:
        problems.append(
            f"{offered} request(s) offered but {len(counts)} distinct request(s) answered"
        )
    return problems


def check_conservation(offered: int, admission: Mapping[str, int]) -> List[str]:
    """``offered == accepted + rejected + shed`` at the ingress."""
    knocked = admission["accepted"] + admission["rejected"] + admission["shed"]
    if knocked != offered:
        return [
            f"admission does not conserve requests: {offered} offered but "
            f"accepted+rejected+shed = {knocked} ({dict(admission)})"
        ]
    return []


def check_no_expired_compute(resilience: Mapping[str, int]) -> List[str]:
    """Expired requests are retired at batch formation, never computed."""
    burned = resilience.get("expired_compute", 0)
    if burned:
        return [f"{burned} expired request(s) burned a remote compute slot"]
    return []


def check_honest_reasons(responses, thresholds: Sequence[float]) -> List[str]:
    """Each ``reason`` alone says how its answer left: a ``threshold`` answer
    at a non-final exit met that exit's threshold (``thresholds``: one per
    exit in cascade order), and a ``shed`` answer came from the first exit
    with no byte sent."""
    final = len(thresholds) - 1
    loose = [
        r.request_id
        for r in responses
        if r.reason == "threshold" and r.exit_index < final
        and not r.entropy <= thresholds[r.exit_index]
    ]
    strayed = [
        r.request_id
        for r in responses
        if r.reason == "shed" and (r.exit_index != 0 or r.bytes_transferred != 0)
    ]
    return [
        f"{len(ids)} '{reason}' answer(s) {what}, e.g. id {ids[0]}"
        for reason, ids, what in (
            ("threshold", loose, "left a non-final exit above its threshold"),
            ("shed", strayed, "did not come from the first exit with 0 bytes"),
        )
        if ids
    ]


def check_replay(first: Sequence[tuple], second: Sequence[tuple]) -> List[str]:
    """Two fresh seeded runs produced identical :func:`accounting`."""
    if first == second:
        return []
    differing = sum(1 for a, b in zip(first, second) if a != b) + abs(len(first) - len(second))
    return [
        f"replay is not byte-identical: {differing}/{max(len(first), len(second))} "
        "per-request accounting tuple(s) differ between two fresh runs of one seed"
    ]


def require(context: str, *checks: Sequence[str]) -> None:
    """Raise ``RuntimeError(f"{context}: ...")`` if any check found a problem."""
    problems = [problem for check in checks for problem in check]
    if problems:
        raise RuntimeError(f"{context}: " + "; ".join(problems))
