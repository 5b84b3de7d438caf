#!/usr/bin/env python
"""Quickstart: run the adaptive protocol against write-invalidate.

Builds the paper's 16-node DASH-like machine, runs the classic migratory
pattern (lock-protected shared counters) under both protocols, and prints
what the adaptive optimization buys: fewer read-exclusive requests, less
network traffic, less write stall.

Run:  python examples/quickstart.py
"""

from repro import Machine, MachineConfig, ProtocolPolicy
from repro.workloads import MigratoryCounters


def run(policy: ProtocolPolicy):
    config = MachineConfig.dash_default(policy=policy)
    machine = Machine(config)
    workload = MigratoryCounters(
        config.num_nodes, num_counters=8, iterations=30, record_lines=2
    )
    return machine.run(workload.programs())


def main() -> None:
    wi = run(ProtocolPolicy("W-I"))
    ad = run(ProtocolPolicy("AD"))

    print("Migratory counters: 16 processors, lock / read / modify / write / unlock")
    print()
    print(f"{'metric':<32}{'W-I':>12}{'AD':>12}")
    rows = [
        ("execution time (pclocks)", wi.execution_time, ad.execution_time),
        ("read-exclusive requests", wi.counter("rxq_received"),
         ad.counter("rxq_received")),
        ("invalidations sent", wi.counter("invalidations_sent"),
         ad.counter("invalidations_sent")),
        ("network traffic (bits)", wi.network_bits, ad.network_bits),
        ("write stall (pclocks)", wi.aggregate_breakdown.write_stall,
         ad.aggregate_breakdown.write_stall),
        ("blocks nominated migratory", wi.counter("nominations"),
         ad.counter("nominations")),
        ("writes with zero global cost", wi.counter("migrating_promotions"),
         ad.counter("migrating_promotions")),
    ]
    for name, a, b in rows:
        print(f"{name:<32}{a:>12}{b:>12}")
    print()
    etr = wi.execution_time / ad.execution_time
    print(f"The adaptive protocol is {etr:.2f}x faster: migratory blocks move")
    print("between caches with ownership, so the write inside each critical")
    print("section needs no invalidation request at all (paper Sections 2-3).")


if __name__ == "__main__":
    main()
