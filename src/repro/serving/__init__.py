"""Online inference: streaming ingestion, micro-batched top-k serving.

The offline stack (``repro.training``) replays a frozen timeline; this
package serves *live* extrapolation traffic from a trained checkpoint:

- :class:`OnlineHistoryStore` — streaming quadruple ingestion over the
  rolling ``l``-snapshot window + incremental global-relevance index;
- :class:`InferenceEngine` — checkpoint loading, LRU-cached and
  micro-batched blocked decodes, top-k extraction;
- :func:`create_server` / :class:`ServingServer` — stdlib JSON-over-
  HTTP frontend (``/ingest``, ``/predict``, ``/health``, ``/stats``);
- :class:`ServingClient` — urllib client (used by ``repro.cli``).

Scale-out (same HTTP surface, N decode processes — see
``docs/serving_cluster.md``):

- :mod:`repro.serving.shard` — entity-range partition + shard workers;
- :mod:`repro.serving.router` — scatter/gather frontend with bitwise
  top-k merging and degraded partial-results mode;
- :mod:`repro.serving.state_tier` — shared on-disk encoder-state tier
  with single-flight encode locking;
- :mod:`repro.serving.cluster` — supervisor: spawn, monitor, restart.

Quickstart::

    python -m repro.cli train hisres unit_tiny --save model.npz
    python -m repro.cli serve model.npz --warmup unit_tiny --port 8420
    python -m repro.cli serve model.npz --warmup unit_tiny --workers 4
    python -m repro.cli predict --url http://127.0.0.1:8420 3 1 --top-k 5
"""

from repro.serving.audit import AUDIT_DEFAULT_CAPACITY, RequestAudit
from repro.serving.client import ServingClient, ServingError
from repro.serving.federation import ClusterMetricsFederator, federated_name
from repro.serving.cluster import (
    ClusterConfig,
    ClusterSupervisor,
    LocalCluster,
    attach_workers,
    build_shard_engine,
    launch_local_cluster,
)
from repro.serving.engine import InferenceEngine, MicroBatcher
from repro.serving.router import ClusterRouter, RouterServer, create_router_server
from repro.serving.server import (
    DrainableHTTPServer,
    ServingServer,
    create_server,
    run_with_graceful_shutdown,
    serve_in_thread,
)
from repro.serving.shard import (
    EntityShard,
    ShardEngine,
    ShardWorkerServer,
    create_worker_server,
    partition_entities,
)
from repro.serving.state_tier import SharedEncoderStateStore, TieredStateCache
from repro.serving.stats import EndpointStats, ServerStats
from repro.serving.store import OnlineHistoryStore

__all__ = [
    "AUDIT_DEFAULT_CAPACITY",
    "ClusterConfig",
    "ClusterMetricsFederator",
    "ClusterRouter",
    "ClusterSupervisor",
    "DrainableHTTPServer",
    "EndpointStats",
    "EntityShard",
    "InferenceEngine",
    "LocalCluster",
    "MicroBatcher",
    "OnlineHistoryStore",
    "RequestAudit",
    "RouterServer",
    "ServerStats",
    "ServingClient",
    "ServingError",
    "ServingServer",
    "ShardEngine",
    "ShardWorkerServer",
    "SharedEncoderStateStore",
    "TieredStateCache",
    "attach_workers",
    "build_shard_engine",
    "create_router_server",
    "create_server",
    "create_worker_server",
    "federated_name",
    "launch_local_cluster",
    "partition_entities",
    "run_with_graceful_shutdown",
    "serve_in_thread",
]
