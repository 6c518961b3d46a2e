"""Cluster-level consolidation: placement, SLA-checked packing, and
the online control plane.

Reproduces the paper's §1 motivation — that GPU sharing can shrink a
cluster's GPU count substantially (the Alibaba estimate is ~50 %)
without violating latency SLAs — using the same co-location simulator
as the per-GPU experiments, and extends it to cluster-scale resilience:
online arrivals, device failures, and checkpoint/restore live migration
of latency-critical tenants (:mod:`repro.cluster.controlplane`, see
``docs/cluster.md``).

Names are re-exported lazily (:mod:`repro._lazy`), but the package
loads :mod:`~repro.cluster.controlplane` with itself: a program that
imports the cluster package runs a cluster, and this keeps the control
plane's imports in its set-up rather than in its first run.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".controlplane": ("AutoscalerConfig", "ClusterController",
                      "run_controlplane", "schedule_arrivals"),
    ".placement": ("ClusterJob", "Placement", "dedicated_placement",
                   "packed_placement"),
    ".simulate": ("ClusterResult", "ServiceOutcome"),
})

from . import controlplane  # noqa: E402,F401  (see above)
