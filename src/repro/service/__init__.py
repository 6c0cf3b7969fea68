"""repro.service: a multi-tenant LEO estimation service.

The paper's amortization argument — "the models are sufficient for
making predictions and LEO does not need to be executed again for the
life of the application under control" (Section 6.7) — only pays off
when fitted models outlive a single process.  This package is the
deployment shape that realizes it: a long-running service that fits
models once, versions them in a :class:`ModelRegistry`, and serves
estimates to any number of tenants.

Layers (see docs/SERVICE.md for the protocol and operational reference):

* :mod:`repro.service.protocol` — the JSON-lines wire protocol (v1),
  typed error hierarchy (:class:`ServiceOverloaded`,
  :class:`DeadlineExceeded`, ...), and :class:`ServiceAddress`.
* :mod:`repro.service.frames` — the length-prefixed binary wire
  protocol (v3): bit-exact float64 frames, CRC-checked, negotiated
  per connection so v1 clients keep working (see docs/SHARDING.md).
* :mod:`repro.service.registry` — :class:`ModelRegistry`, a versioned,
  schema-checked model store layered on
  :class:`repro.runtime.persistence.EstimateStore`.
* :mod:`repro.service.server` — :class:`EstimationService` (op handlers
  + admission control + request coalescing) behind
  :class:`ServiceServer` (asyncio transport) and :class:`ServerThread`
  (background-thread harness for tests and examples).
* :mod:`repro.service.client` — the synchronous :class:`ServiceClient`
  with retry/backoff, and :class:`RemoteEstimator`, an
  :class:`~repro.estimators.base.Estimator` adapter that lets a
  :class:`~repro.runtime.controller.RuntimeController` consume the
  service unchanged.

Quickstart::

    from repro.service import RemoteEstimator, ServerThread, ServiceClient

    with ServerThread() as server:
        client = ServiceClient(server.address)
        controller = RuntimeController(machine, space,
                                       estimator=RemoteEstimator(client),
                                       prior_rates=..., prior_powers=...)
        estimate = controller.calibrate(profile)

or from the shell: ``python -m repro serve`` and ``python -m repro
request ping``.  For the horizontally scaled deployment — N brokers, a
consistent-hash router, registry replication — see :mod:`repro.shard`.
"""

from repro.service.client import RemoteEstimator, ServiceClient
from repro.service.frames import (
    decode_binary_frame,
    encode_binary_frame,
)
from repro.service.protocol import (
    DeadlineExceeded,
    EstimationRejected,
    FrameError,
    ProtocolError,
    RemoteError,
    Request,
    RequestRejected,
    Response,
    ServiceAddress,
    ServiceError,
    ServiceOverloaded,
    ShardUnavailable,
    problem_from_payload,
    problem_to_payload,
)
from repro.service.registry import ModelRecord, ModelRegistry, PriorPool
from repro.service.server import EstimationService, ServerThread, ServiceServer

__all__ = [
    "DeadlineExceeded",
    "EstimationRejected",
    "EstimationService",
    "FrameError",
    "ModelRecord",
    "ModelRegistry",
    "PriorPool",
    "ProtocolError",
    "RemoteError",
    "RemoteEstimator",
    "Request",
    "RequestRejected",
    "Response",
    "ServerThread",
    "ServiceAddress",
    "ServiceClient",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceServer",
    "ShardUnavailable",
    "decode_binary_frame",
    "encode_binary_frame",
    "problem_from_payload",
    "problem_to_payload",
]
