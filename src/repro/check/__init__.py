"""Correctness tooling: runtime invariants + differential validation.

Two layers (see ``docs/validation.md``):

* :mod:`repro.check.invariants` — an opt-in runtime checker
  (:class:`InvariantChecker`) that re-audits the device's accounting
  after every simulation event, behind a zero-overhead disabled
  default (:data:`NULL_CHECKER`, mirroring ``NULL_TRACER``);
* :mod:`repro.check.differential` — seeded random workload generation
  plus differential oracles: the device versus the analytic cost
  model, repeated runs for determinism, physical lower bounds, and
  kernel conservation across Tally and every baseline.

Like every package here, this one imports its submodules on first use
(:mod:`repro._lazy`): the device needs only :data:`NULL_CHECKER`, and
the differential layer imports the policies, which import the device.
"""

from __future__ import annotations

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "..errors": ("InvariantViolation",),
    ".cluster": ("ServiceLedger", "check_request_conservation"),
    ".invariants": ("NULL_CHECKER", "InvariantChecker", "NullChecker"),
    ".differential": ("Divergence", "KernelRecord", "ValidationReport",
                      "analytic_divergences", "conservation_divergences",
                      "determinism_divergences", "lower_bound_divergences",
                      "make_policy", "random_mix", "random_plan", "run_mix",
                      "run_validation"),
})
