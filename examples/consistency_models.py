#!/usr/bin/env python
"""Sequential consistency vs weak ordering (the paper's Figure 6 story).

Weak ordering hides write latency by letting the processor run past its
writes — so why does the adaptive protocol still matter?  Because hiding
latency does not remove the *traffic*: under a loaded network W-I's extra
invalidation messages raise the read penalty.  This example runs the
MP3D model under:

  * SC            — writes stall (the paper's default);
  * WO (real net) — writes overlap, contention bites;
  * WO (infinite) — writes overlap, no contention anywhere.

Run:  python examples/consistency_models.py   (takes ~10 s)
"""

from repro import Machine, MachineConfig, ProtocolPolicy
from repro.consistency import SEQUENTIAL_CONSISTENCY, WEAK_ORDERING
from repro.workloads import make_workload


def run(policy, consistency, infinite_bandwidth=False):
    config = MachineConfig.dash_default(
        policy=policy,
        consistency=consistency,
        infinite_bandwidth=infinite_bandwidth,
        check_coherence=False,
    )
    machine = Machine(config)
    workload = make_workload("mp3d", config.num_nodes, "default")
    return machine.run(workload.programs())


def main() -> None:
    variants = [
        ("SC", SEQUENTIAL_CONSISTENCY, False),
        ("WO, contended network", WEAK_ORDERING, False),
        ("WO, infinite bandwidth", WEAK_ORDERING, True),
    ]
    baseline = None
    print(f"{'variant':<26}{'policy':<6}{'time':>10}{'norm':>7}"
          f"{'read':>8}{'write':>8}")
    for label, consistency, infinite in variants:
        for policy_label, policy in (
            ("W-I", ProtocolPolicy("W-I")),
            ("AD", ProtocolPolicy("AD")),
        ):
            result = run(policy, consistency, infinite)
            if baseline is None:
                baseline = result.execution_time
            fractions = result.aggregate_breakdown.fractions()
            print(
                f"{label:<26}{policy_label:<6}{result.execution_time:>10}"
                f"{result.execution_time / baseline:>7.2f}"
                f"{fractions['read']:>8.1%}{fractions['write']:>8.1%}"
            )
    print()
    print("Things to notice (paper Section 5.2):")
    print(" * WO drives write stall to zero for BOTH protocols;")
    print(" * with the real network, W-I pays a higher read penalty under WO")
    print("   because its extra invalidation traffic congests the meshes;")
    print(" * with infinite bandwidth the two protocols nearly converge —")
    print("   the WO gap really is contention, which only AD can remove.")


if __name__ == "__main__":
    main()
