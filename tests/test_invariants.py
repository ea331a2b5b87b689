"""Tests for ``repro.serving.invariants`` — the one copy of the serving gates."""

from __future__ import annotations

import dataclasses

import pytest

from repro.serving import AnswerReason, FabricResponse
from repro.serving.invariants import (
    ACCOUNTING_FIELDS,
    accounting,
    check_conservation,
    check_exactly_once,
    check_no_expired_compute,
    check_replay,
    require,
    routing,
)


def _responses(count: int = 4):
    return [
        FabricResponse(
            request_id=index,
            client_id="c",
            prediction=index % 3,
            exit_index=index % 2,
            exit_name=("local", "cloud")[index % 2],
            entropy=0.25,
            completion_time=0.1 * (index + 1),
            bytes_transferred=64.0 * (index % 2),
        )
        for index in range(count)
    ]


#: Accounted flags that are views of ``FabricResponse.reason``: each is
#: perturbed by the reason that turns it on (every ``_responses`` answer
#: has reason ``threshold``, so each is off).
_REASON_FOR_FLAG = {"shed": AnswerReason.SHED, "degraded": AnswerReason.FAILOVER}


def _perturbed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return value + "'"
    return value + 1


class TestReplay:
    def test_identical_runs_replay(self):
        assert check_replay(accounting(_responses()), accounting(_responses())) == []

    def test_accounting_ignores_arrival_order(self):
        assert accounting(reversed(_responses())) == accounting(_responses())

    @pytest.mark.parametrize("field", ACCOUNTING_FIELDS)
    def test_every_accounted_field_trips_the_gate(self, field):
        """One response differing in one field — any of the eleven — must
        fail the replay check (chaos used to skip three, SLO one)."""
        first = _responses()
        second = _responses()
        if field in _REASON_FOR_FLAG:
            change = {"reason": _REASON_FOR_FLAG[field]}
        else:
            change = {field: _perturbed(getattr(second[2], field))}
        second[2] = dataclasses.replace(second[2], **change)
        assert getattr(second[2], field) != getattr(first[2], field)
        problems = check_replay(accounting(first), accounting(second))
        assert len(problems) == 1 and "not byte-identical" in problems[0]

    def test_entropy_is_not_accounted(self):
        second = _responses()
        second[0] = dataclasses.replace(second[0], entropy=0.75)
        assert check_replay(accounting(_responses()), accounting(second)) == []

    def test_a_missing_response_counts_as_a_difference(self):
        problems = check_replay(accounting(_responses(4)), accounting(_responses(3)))
        assert "1/4" in problems[0]


class TestRouting:
    def test_rows_are_id_prediction_exit(self):
        assert routing(_responses(2)) == [(0, 0, 0, "local"), (1, 1, 1, "cloud")]

    def test_after_filters_on_completion_time(self):
        assert [row[0] for row in routing(_responses(), after=0.25)] == [2, 3]


class TestExactlyOnce:
    def test_holds(self):
        assert check_exactly_once(4, _responses(4)) == []

    def test_a_dropped_request(self):
        assert "3 distinct" in check_exactly_once(4, _responses(3))[0]

    def test_a_duplicated_answer(self):
        responses = _responses(4)
        problems = check_exactly_once(4, responses + [responses[1]])
        assert len(problems) == 1 and "more than once, e.g. id 1" in problems[0]

    def test_a_duplicate_hiding_a_drop(self):
        responses = _responses(3)
        assert len(check_exactly_once(4, responses + [responses[0]])) == 2


class TestConservationAndExpiredCompute:
    def test_conservation(self):
        stats = {"accepted": 5, "rejected": 2, "shed": 3, "dropped": 1}
        assert check_conservation(10, stats) == []
        assert "accepted+rejected+shed = 10" in check_conservation(11, stats)[0]

    def test_expired_compute(self):
        assert check_no_expired_compute({"expired_compute": 0}) == []
        assert check_no_expired_compute({}) == []
        assert "2 expired" in check_no_expired_compute({"expired_compute": 2})[0]


class TestRequire:
    def test_passes_when_every_check_is_empty(self):
        require("cell (deadline, none)", [], [])

    def test_raises_with_the_context_and_every_problem(self):
        with pytest.raises(RuntimeError) as error:
            require(
                "slo cell (deadline, worker-crash)",
                check_exactly_once(4, _responses(3)),
                check_no_expired_compute({"expired_compute": 1}),
            )
        message = str(error.value)
        assert message.startswith("slo cell (deadline, worker-crash): ")
        assert "3 distinct" in message and "1 expired" in message
