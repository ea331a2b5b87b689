"""Single-box DDNN server: the serving fabric over one whole-cascade tier.

:class:`DDNNServer` is a :class:`~repro.serving.fabric.DistributedServingFabric`
whose only tier is a :class:`~repro.hierarchy.sections.CascadeTierSection`:
one worker runs the whole compiled forward on each micro-batch and applies
every exit in cascade order, so a request is answered where it arrives —
no links, no offload bytes.  Everything else is the fabric's own: clients
``submit()`` samples and the event loop (``run_until_idle()``,
``serve_dataset()``, ``open_loop()``) forms batches with the shared
:meth:`BatchingPolicy.due <repro.serving.batcher.BatchingPolicy.due>`
trigger, a bounded ``capacity`` applies the
:func:`~repro.serving.admission.admit` rule at the ingress, and a shed
request is answered at once from the first exit.  A
:class:`~repro.serving.loadgen.ServiceModel` in ``service_models`` prices
each batch in simulated time (without one a batch takes no time).

With an unbounded queue a binary model's every answer is the oracle's route
of its sample, at any batch shape (covered by tests).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.cascade import Thresholds
from ..core.ddnn import DDNN
from ..hierarchy.partition import partition_ddnn
from ..hierarchy.sections import CascadeTierSection
from .admission import AdmissionPolicy
from .batcher import BatchingPolicy
from .fabric import DistributedServingFabric
from .loadgen import ServiceModel

__all__ = ["DDNNServer"]


class DDNNServer(DistributedServingFabric):
    """Serves staged-exit inference on one tier with one worker.

    ``model`` and ``thresholds`` are as for the fabric's deployment and
    cascade; ``policy`` is the tier's :class:`BatchingPolicy`.  The other
    arguments are the fabric's own, passed through: ``capacity`` and
    ``admission``, ``compile`` (must be ``True``) and ``service_models``
    (one entry).  It runs on the simulated backend and
    clock; a threaded or wall-clock single tier is a
    :class:`DistributedServingFabric` built with
    ``sections=[CascadeTierSection(model)]`` and the backend wanted.
    """

    def __init__(
        self,
        model: DDNN,
        thresholds: Thresholds,
        policy: Optional[BatchingPolicy] = None,
        capacity: Optional[int] = None,
        admission: Optional[AdmissionPolicy] = None,
        compile: bool = True,
        service_models: Optional[Sequence[Optional[ServiceModel]]] = None,
    ) -> None:
        super().__init__(
            partition_ddnn(model),
            thresholds,
            batching=policy,
            compile=compile,
            sections=[CascadeTierSection(model)],
            service_models=service_models,
            capacity=capacity,
            admission=admission,
        )
