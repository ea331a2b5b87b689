"""Fabric accounting canary: two seeded runs against a recording.

Two short simulated runs over a seeded, untrained ``ci``-shaped model must
reproduce, request for request, the :func:`repro.serving.invariants.accounting`
tuples recorded in ``tests/data/fabric_accounting_canary.json``, and, link for
link and node for node, the traffic and compute stats:

* ``steady`` — one fabric, two workers per tier, batches of up to eight,
  open-loop Poisson arrivals at a rate the device tier keeps up with;
* ``chaos`` — two replica stacks behind a round-robin balancer on one event
  loop, with flapping and lossy uplinks, deadline retries, circuit breakers,
  an SLO with EDF batch formation, hedged offloads and a small ingress queue
  that sheds to the local exit.

The recording guards every change to the serving path that promises not to
move a single answer, time or byte.  ``python
tests/test_fabric_accounting_canary.py --record`` rewrites it from whatever
``repro`` is importable (it was last run, with one BLAS thread, when
BatchNorm stopped being folded into compiled weights: only the predictions
of requests whose untrained cloud logits tie exactly moved, to the eager
model's ``argmax``); ``--canary`` exits non-zero where BLAS does not round
like the recording host's.  Routing, and with it every time and byte,
depends on the first conv's float GEMM landing on the same side of its sign
thresholds, so there the test checks that each run replays itself and keeps
the fabric's invariants, and reports itself skipped.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.ddnn import build_ddnn
from repro.experiments.runner import ci_scale
from repro.hierarchy.faults import ChaosSchedule, LinkFlap, LinkLoss
from repro.hierarchy.partition import partition_ddnn
from repro.hierarchy.plan import PartitionPlan
from repro.hierarchy.sections import build_tier_sections
from repro.serving import (
    BatchingPolicy,
    CircuitBreaker,
    DistributedServingFabric,
    HedgePolicy,
    LoadBalancer,
    PoissonProcess,
    RetryPolicy,
    ServiceModel,
)
from repro.serving.admission import ShedToLocalExit
from repro.serving.invariants import accounting, check_conservation, check_exactly_once

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_compile_memory_plan import _same_blas_as_recorded  # noqa: E402

RECORDED = Path(__file__).resolve().parent / "data" / "fabric_accounting_canary.json"
REQUESTS = 160
#: An untrained model's local exit is extremely confident; this threshold
#: sends a little over half of the samples up to the cloud.
THRESHOLD = 1e-18
RATE_RPS = 250.0


def _model_and_views():
    model = build_ddnn(ci_scale().ddnn_config())
    model.eval()
    views = np.random.default_rng(3).uniform(0.0, 1.0, size=(32, 6, 3, 32, 32))
    return model, views


def _steady(model, views):
    fabric = DistributedServingFabric(
        partition_ddnn(model),
        THRESHOLD,
        workers_per_tier=2,
        batching=BatchingPolicy(max_batch_size=8, max_wait_s=0.005),
        service_models=[
            ServiceModel(batch_overhead_s=0.002, per_sample_s=0.001),
            ServiceModel(batch_overhead_s=0.001, per_sample_s=0.0005),
        ],
    )
    report = fabric.open_loop(
        PoissonProcess(1200.0, seed=5), views, num_requests=REQUESTS
    )
    return [fabric], report


def _chaos(model, views):
    # Twice the worst single-row uplink transfer, as the chaos benchmark sets it.
    deadline = 2.0 * build_tier_sections(partition_ddnn(model))[0].transfer_estimate_s()
    horizon = REQUESTS / RATE_RPS
    plan = PartitionPlan(model, replicas=2, slo_s=8 * deadline, hedge=HedgePolicy(0.1, 1))
    balancer = LoadBalancer.from_plan(
        plan,
        THRESHOLD,
        batching=BatchingPolicy(max_batch_size=4, max_wait_s=0.004),
        service_models=[ServiceModel(batch_overhead_s=0.002, per_sample_s=0.004)] * 2,
        offload=RetryPolicy(
            deadline_s=deadline,
            max_retries=3,
            backoff_base_s=deadline / 2.0,
            backoff_multiplier=2.0,
            backoff_max_s=4.0 * deadline,
            jitter_s=deadline / 10.0,
            seed=1,
        ),
        breaker=CircuitBreaker(failure_threshold=3, reset_timeout_s=2.5 * deadline),
        edf=True,
        capacity=1,
        admission=ShedToLocalExit(),
    )
    for index, replica in enumerate(balancer.replicas):
        period = 7.2 * deadline
        window = dict(destination="cloud", end=0.9 * horizon)
        replica.attach_chaos(
            ChaosSchedule(
                flaps=[
                    LinkFlap(
                        period_s=period,
                        down_s=1.25 * deadline,
                        start=0.1 * horizon + index * period / 2.0,
                        **window,
                    )
                ],
                losses=[LinkLoss(probability=0.08, start=0.1 * horizon, **window)],
                seed=7 * index,
            )
        )
    arrivals = PoissonProcess(RATE_RPS, seed=2)
    for count, when in zip(range(REQUESTS), arrivals):
        balancer.submit(views[count % len(views)], at=when)
    balancer.run_until_idle(drain=True)
    return balancer.replicas, balancer.report()


SCENARIOS = {"steady": _steady, "chaos": _chaos}


def _run(name: str) -> dict:
    """One scenario's accounting, per-link and per-node stats, as plain data."""
    fabrics, report = SCENARIOS[name](*_model_and_views())
    links, nodes = [], []
    for fabric in fabrics:
        deployment = fabric.deployment
        for link in deployment.fabric.links():
            stats = link.stats
            links.append(
                [link.source, link.destination, stats.messages, stats.bytes_transferred, stats.transfer_seconds]
            )
        members = [*deployment.devices, deployment.local_aggregator, *deployment.edges, deployment.cloud]
        for node in members:
            if node is not None:
                stats = node.stats
                nodes.append([node.name, stats.samples_processed, stats.compute_seconds, stats.bytes_sent])
    return {
        "accounting": [list(row) for row in accounting(report.responses)],
        "links": links,
        "nodes": nodes,
        "lost_messages": sum(fabric.deployment.fabric.lost_messages for fabric in fabrics),
        "metadata": json.loads(json.dumps(report.metadata)),
    }


@pytest.fixture(scope="module")
def recorded() -> dict:
    with open(RECORDED) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_reproduces_the_recorded_accounting(name, recorded):
    current = _run(name)
    if _same_blas_as_recorded():
        expected = recorded[name]
        assert current["accounting"] == expected["accounting"]
        assert current["links"] == expected["links"]
        assert current["nodes"] == expected["nodes"]
        assert current["lost_messages"] == expected["lost_messages"]
        assert current["metadata"] == expected["metadata"]
        return
    assert _run(name) == current, "a seeded simulated run must replay itself"
    offered = REQUESTS
    assert not check_exactly_once(offered, [_Answer(row) for row in current["accounting"]])
    assert not check_conservation(offered, current["metadata"]["admission"])
    pytest.skip(
        "BLAS canary differs from the recording host's: each run replays itself "
        "and keeps its invariants, equality with the recording NOT checked"
    )


def test_the_chaos_scenario_exercises_every_resilience_path(recorded):
    """The recording is only a guard for paths it actually went through."""
    resilience = recorded["chaos"]["metadata"]["resilience"]
    for counter in ("retries", "failovers", "hedges", "hedge_wins", "timeouts"):
        assert resilience[counter] > 0, counter
    assert recorded["chaos"]["metadata"]["admission"]["shed"] > 0
    assert recorded["chaos"]["lost_messages"] > 0
    exits = {row[3] for row in recorded["steady"]["accounting"]}
    assert exits == {"local", "cloud"}


class _Answer:
    """A recorded accounting row seen through the one field the checks read."""

    def __init__(self, row) -> None:
        self.request_id = row[0]


if __name__ == "__main__":
    if sys.argv[1:] == ["--canary"]:
        sys.exit(
            None
            if _same_blas_as_recorded()
            else "BLAS canary differs from the recording host's: the fabric "
            "accounting canary would skip its exact comparison"
        )
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    with open(RECORDED, "w") as handle:
        json.dump({name: _run(name) for name in sorted(SCENARIOS)}, handle)
        handle.write("\n")
