"""The declared kernel-twin phase contract.

The engine's load-bearing invariant is that every step-loop twin —
``StepKernel.run_lean``, the instrumented reference step, and both
``SoaKernel`` loops — executes the same phases in the same order.  The
dynamic proof is the golden fixtures plus the hypothesis differentials;
this module is the *static* declaration the KER3xx rules check each
twin against, so a reordered or dropped phase fails lint seconds after
the edit instead of minutes into a differential run.

Kept free of rule classes on purpose: the DET203 RNG-reachability pass
needs :data:`VECTORIZED_ENTRYPOINTS` too, and importing it must not
perturb rule-registration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

__all__ = [
    "KERNEL_TWINS",
    "OPTIONAL_PHASES",
    "PHASE_ORDER",
    "TwinSpec",
    "VECTORIZED_ENTRYPOINTS",
]

#: The contract, in execution order.  Fault application precedes
#: admission (a node crashed at step ``t`` must reject that step's
#: injections), then ranking, arc assignment, movement, delivery.
PHASE_ORDER: Tuple[str, ...] = (
    "faults",
    "inject",
    "rank",
    "arc_assign",
    "move",
    "deliver",
)

#: Phases a twin may legitimately lack: ``run_lean`` and the
#: instrumented step apply fault plans; the soa loops reject fault
#: plans up front and carry no faults phase.
OPTIONAL_PHASES: FrozenSet[str] = frozenset({"faults"})


@dataclass(frozen=True)
class TwinSpec:
    """One function the contract binds, addressed portably.

    ``module_suffix`` is a dotted-module *suffix* (``core.kernel``)
    rather than an absolute name so the same declaration checks
    ``repro.core.kernel`` and the linter's own ``dirtypkg.core.kernel``
    fixtures without knowing either tree's root.
    """

    module_suffix: str
    qualname: str

    def describe(self) -> str:
        return f"*.{self.module_suffix}:{self.qualname}"


#: Every loop twin bound by the phase contract.
KERNEL_TWINS: Tuple[TwinSpec, ...] = (
    TwinSpec("core.kernel", "StepKernel.run_lean"),
    TwinSpec("core.kernel", "StepKernel.step_instrumented"),
    TwinSpec("core.soa.kernel", "SoaKernel._run_columnar"),
    TwinSpec("core.soa.kernel", "SoaKernel._run_vectorized"),
)

#: Roots of the soa *vectorized* path.  Per the PR 6 backend contract
#: only the columnar fallback may consume policy RNG (it replays the
#: object kernel's node-visit order); anything reachable from these
#: roots must be RNG-free, which is what DET203 enforces.
VECTORIZED_ENTRYPOINTS: Tuple[TwinSpec, ...] = (
    TwinSpec("core.soa.kernel", "SoaKernel._run_vectorized"),
    TwinSpec("core.soa.kernel", "SoaKernel._step_buffered_vectorized"),
)
