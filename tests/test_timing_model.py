"""The fault-free fabric against the reference timing model (``timing_model``).

Hypothesis draws worker counts, batching policies, service coefficients,
link specs, the threshold and a Poisson arrival stream; the two-tier fabric
must answer every request at the exit, with the bytes and at the simulated
instant, that the model computes without it.  A few fixed corners of that
space run on every draw, and the model is held to hand arithmetic itself.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExitOracle
from repro.hierarchy import LinkSpec, partition_ddnn
from repro.serving import BatchingPolicy, DistributedServingFabric, PoissonProcess, ServiceModel
from timing_model import Answer, Tier, reference_run

TIERS = st.builds(
    Tier,
    workers=st.integers(1, 3),
    batching=st.builds(
        BatchingPolicy,
        max_batch_size=st.integers(1, 6),
        max_wait_s=st.one_of(st.just(0.0), st.floats(1e-4, 0.02)),
    ),
    service=st.builds(
        ServiceModel,
        batch_overhead_s=st.one_of(st.just(0.0), st.floats(1e-4, 0.01)),
        per_sample_s=st.floats(1e-4, 0.01),
    ),
)
LINKS = st.builds(
    LinkSpec,
    bandwidth_bytes_per_s=st.floats(2e4, 2e6),
    latency_s=st.one_of(st.just(0.0), st.floats(1e-4, 0.1)),
)


@pytest.fixture(scope="module")
def oracle(trained_ddnn, tiny_test):
    return ExitOracle.capture(trained_ddnn, tiny_test)


def _check_against_the_model(
    trained_ddnn, tiny_test, oracle, tiers, local_link, uplink, threshold, rate_rps, seed, requests
):
    deployment = partition_ddnn(trained_ddnn, local_link=local_link, uplink=uplink)
    fabric = DistributedServingFabric(
        deployment,
        threshold,
        workers_per_tier=[tier.workers for tier in tiers],
        batching=[tier.batching for tier in tiers],
        service_models=[tier.service for tier in tiers],
    )
    process = PoissonProcess(rate_rps, seed=seed)
    report = fabric.open_loop(process, tiny_test.images, num_requests=requests)

    arrivals = [when for when, _ in zip(process, range(requests))]
    routed = oracle.route(threshold).exit_indices
    samples = len(tiny_test)
    config = trained_ddnn.config
    devices = config.num_devices
    # Eq. 1's message sizes: 4|C| bytes of class scores, f·o/8 of feature bits.
    summary = 4.0 * config.num_classes
    features = config.device_filters * config.device_output_size**2 / 8
    expected = reference_run(
        arrivals,
        [routed[k % samples] == 0 for k in range(requests)],
        tiers,
        [summary] * devices,
        [features] * devices,
        (uplink.bandwidth_bytes_per_s, uplink.latency_s),
    )
    answers = sorted(report.responses, key=lambda response: response.request_id)
    assert [r.request_id for r in answers] == list(range(requests))
    # Every time is the same float expression on both sides (an arrival, a
    # sum of a dispatch time and a service time, of a completion and one
    # transfer, or of an arrival and the wait), so all three are exact.
    assert [(r.exit_index, r.bytes_transferred, r.completion_time) for r in answers] == [
        (answer.exit_index, answer.bytes, answer.completion_s) for answer in expected
    ]
    return answers


@settings(max_examples=100, deadline=None)
@given(
    tiers=st.tuples(TIERS, TIERS),
    local_link=LINKS,
    uplink=LINKS,
    threshold=st.floats(0.0, 1.0),
    rate_rps=st.floats(20.0, 3000.0),
    seed=st.integers(0, 2**16),
    requests=st.integers(1, 24),
)
def test_fabric_times_equal_the_reference_model(
    trained_ddnn, tiny_test, oracle, tiers, local_link, uplink, threshold, rate_rps, seed, requests
):
    _check_against_the_model(
        trained_ddnn, tiny_test, oracle, tiers, local_link, uplink, threshold, rate_rps, seed,
        requests,
    )


def _tier(workers=1, batch=1, wait=0.0, overhead=0.0, per_sample=0.002):
    return Tier(workers, BatchingPolicy(batch, wait), ServiceModel(overhead, per_sample))


_LINK = LinkSpec(bandwidth_bytes_per_s=2e5, latency_s=0.01)

#: Fixed corners of the generated space, checked on every run whatever
#: Hypothesis draws: ``(tiers, uplink, threshold, rate_rps, exits)`` where
#: ``exits`` is the set of exits the 24 requests must reach.
CORNERS = {
    # One slot and batches of one: both tiers are plain FIFO servers.
    "fifo": ((_tier(), _tier()), _LINK, 0.5, 300.0, {0, 1}),
    # Nothing is confident enough: every request pays the uplink.
    "all-offload": ((_tier(2, 4, 0.005), _tier(2, 4, 0.005)), _LINK, 0.0, 500.0, {1}),
    # Everything exits locally: the cloud tier never runs.
    "all-local": ((_tier(2, 4, 0.005), _tier(2, 4, 0.005)), _LINK, 1.0, 500.0, {0}),
    # Sparse arrivals and long waits: the wait timer releases partial batches.
    "timer-released": ((_tier(1, 6, 0.02), _tier(1, 6, 0.02)), _LINK, 0.5, 40.0, {0, 1}),
    # Arrivals far faster than one slow slot: queues build and full batches form.
    "saturated": (
        (_tier(1, 3, 0.001, 0.005, 0.005), _tier(1, 2, 0.0, 0.005, 0.01)),
        LinkSpec(bandwidth_bytes_per_s=2e4, latency_s=0.0),
        0.5,
        3000.0,
        {0, 1},
    ),
}


@pytest.mark.parametrize("corner", list(CORNERS))
def test_fabric_times_equal_the_reference_model_at_a_corner(
    trained_ddnn, tiny_test, oracle, corner
):
    tiers, uplink, threshold, rate_rps, exits = CORNERS[corner]
    answers = _check_against_the_model(
        trained_ddnn, tiny_test, oracle, tiers, _LINK, uplink, threshold, rate_rps, 3, 24
    )
    assert {answer.exit_index for answer in answers} == exits


# The model itself, against arithmetic done by hand.
_SUMMARY, _FEATURES, _UPLINK = [40.0, 40.0], [100.0, 300.0], (1000.0, 0.05)


def test_the_model_answers_a_local_exit_after_one_service():
    tier = _tier(overhead=0.001, per_sample=0.002)
    (answer,) = reference_run([0.5], [True], (tier, tier), _SUMMARY, _FEATURES, _UPLINK)
    assert answer == Answer(0, 80.0, 0.5 + (0.001 + 0.002))


def test_the_model_offloads_after_the_slowest_device_transfer():
    device, cloud = _tier(overhead=0.001, per_sample=0.002), _tier(per_sample=0.004)
    (answer,) = reference_run([0.5], [False], (device, cloud), _SUMMARY, _FEATURES, _UPLINK)
    reached_cloud = 0.5 + 0.003 + (0.05 + 300.0 / 1000.0)
    assert answer == Answer(1, 80.0 + 400.0, reached_cloud + 0.004)


def test_the_model_batches_until_full_or_the_wait_runs_out():
    tier = _tier(batch=2, wait=0.1, per_sample=0.01)
    answers = reference_run(
        [0.0, 0.05, 1.0], [True] * 3, (tier, tier), _SUMMARY, _FEATURES, _UPLINK
    )
    # The second arrival fills the batch; the third waits out max_wait alone.
    assert [answer.completion_s for answer in answers] == [
        0.05 + 0.02,
        0.05 + 0.02,
        1.0 + 0.1 + 0.01,
    ]
