"""Dirty kernel-twin module: KER301/KER302 vectors (never run).

This module's dotted name ends in ``core.kernel``, so the phase
contract declared in ``repro.lint.kernelspec`` binds its ``StepKernel``
twins exactly as it binds the real one.  Both declared twins breach
the contract: ``run_lean`` reorders rank behind arc assignment, and
``step_instrumented`` drops delivery on top of the same reordering,
whose report is suppressed.
"""

pending = {}


def decide(view):
    return view


class StepKernel:
    def _admit(self, now):
        return now

    def _apply_faults(self, now):
        return now

    def run_lean(self, steps, packet):
        # KER301 fire: rank runs after arc assignment — the stored
        # direction cannot have come from this step's decision.
        for now in range(steps):
            self._apply_faults(now)
            self._admit(now)
            pending[now] = packet
            assignment = decide(now)
            packet.hops += 1
            packet.delivered_at = now
        return assignment

    def step_instrumented(self, now, packet):
        # KER302 fire: no delivery bookkeeping in this twin.  It also
        # repeats run_lean's reordering, but suppressed — the KER301
        # pair's silent half.
        self._apply_faults(now)
        self._admit(now)
        pending[now] = packet
        assignment = decide(now)  # repro: noqa[KER301]
        packet.hops += 1
        return assignment
