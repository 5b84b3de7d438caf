#!/usr/bin/env python
"""The adaptive protocol on a bus-based SMP (paper Section 6).

"The protocol is applicable to bus-based systems with snoopy-cache
protocols.  In such systems a primary concern is to reduce network
traffic rather than reducing latency."

Eight processors on one snooping bus run a task-farm of lock-protected
work items; the example compares write-invalidate against the adaptive
extension on the metrics a bus designer cares about: transactions, bits,
and occupancy of the single shared bus.

Run:  python examples/bus_system.py
"""

from repro.core.policy import ProtocolPolicy
from repro.cpu.ops import Compute, Lock, Read, Unlock, Write
from repro.snoopy import SnoopyConfig, SnoopyMachine

WORK_ITEMS = 6
ROUNDS = 30


def worker(processor):
    for round_ in range(ROUNDS):
        item = (processor + round_) % WORK_ITEMS
        yield Lock(item)
        yield Read(8192 + item * 16)       # fetch the work item
        yield Compute(8)                   # process it
        yield Write(8192 + item * 16)      # store the result
        yield Unlock(item)


def run(policy):
    machine = SnoopyMachine(SnoopyConfig(num_processors=8, policy=policy))
    result = machine.run([worker(p) for p in range(8)])
    return result


def main() -> None:
    wi = run(ProtocolPolicy("W-I"))
    ad = run(ProtocolPolicy("AD"))

    print("8 processors, one snooping bus, lock-protected task farm\n")
    print(f"{'metric':<26}{'W-I':>10}{'AD':>10}{'saved':>8}")
    rows = [
        ("bus transactions", wi.bus_transactions, ad.bus_transactions),
        ("bus traffic (bits)", wi.bus_bits, ad.bus_bits),
        ("bus busy (pclocks)",
         round(wi.bus_utilization * wi.execution_time),
         round(ad.bus_utilization * ad.execution_time)),
        ("execution time", wi.execution_time, ad.execution_time),
        ("read-exclusive requests", wi.counter("rxq_received"),
         ad.counter("rxq_received")),
    ]
    for label, a, b in rows:
        saved = 1 - b / max(1, a)
        print(f"{label:<26}{a:>10}{b:>10}{saved:>8.0%}")
    print()
    print(f"bus utilization: W-I {wi.bus_utilization:.0%} -> AD "
          f"{ad.bus_utilization:.0%}")
    print("On a bus the win is occupancy: every eliminated upgrade is a")
    print("transaction the single shared resource never has to carry.")


if __name__ == "__main__":
    main()
