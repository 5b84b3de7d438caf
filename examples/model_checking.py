#!/usr/bin/env python
"""Exhaustively verify the protocol with the bundled model checker.

Runs the simulator's own cache and directory controllers, untimed, over
one block (a home directory + N caches + FIFO channels), enumerates every
reachable state and checks the coherence invariants in each — the kind
of validation the paper's Section 4 promises ("to validate the
correctness of the adaptive cache coherence protocol").  Each bound
below finishes in a few seconds; ``repro-sim verify --caches 3`` runs
the 3-cache proofs (tens of seconds each).

Run:  python examples/model_checking.py
"""

from repro.core.policy import ProtocolPolicy
from repro.verify import Harness, explore


def main() -> None:
    configs = [
        ("write-invalidate", 2, 2, ProtocolPolicy("W-I")),
        ("adaptive", 2, 2, ProtocolPolicy("AD")),
        ("adaptive", 2, 3, ProtocolPolicy("AD")),
        ("adaptive + rxq-revert", 2, 3, ProtocolPolicy("AD-RXQ")),
        ("adaptive - nomig", 2, 3, ProtocolPolicy("AD-NONOMIG")),
    ]
    print(f"{'policy':<24}{'caches':>7}{'ops':>5}   result")
    for name, caches, ops, policy in configs:
        result = explore(Harness(caches, ops, policy))
        print(f"{name:<24}{caches:>7}{ops:>5}   {result.summary()}")
    print()
    print("Every state satisfied: single writer beside no reader, value")
    print("coherence, directory sanity, and deadlock freedom.  Fun fact: an")
    print("earlier model checker found a real race in this repository (a new")
    print("owner's writeback overtaking the Xfer ownership notice) — fixed by")
    print("generalizing the paper's MIack replacement lock to all")
    print("owner-to-owner transfers.")


if __name__ == "__main__":
    main()
