#!/usr/bin/env python
"""Critical sections in a bank-transfer application.

The paper's motivation (Section 1): data structures modified inside
critical sections migrate between processors, and under a plain
write-invalidate protocol every visit pays a read miss *plus* an
invalidation request that could have been merged with it.

This example builds a miniature bank: 16 tellers (processors) transfer
money between accounts, each transfer locking two accounts and
read-modify-writing their balance records.  It then inspects the home
directories to show the blocks the adaptive protocol classified as
migratory, and verifies (through the simulator's version oracle) that no
update was lost under either protocol.

Run:  python examples/critical_sections.py
"""

import random

from repro import Machine, MachineConfig, ProtocolPolicy
from repro.coherence.states import MIGRATORY_STATES
from repro.cpu.ops import Compute, Lock, Read, Unlock, Write
from repro.machine.allocator import SharedAllocator

NUM_ACCOUNTS = 12
TRANSFERS_PER_TELLER = 25


def build_programs(num_tellers: int, accounts, seed: int = 7):
    def teller(me: int):
        rng = random.Random(seed * 101 + me)
        for _ in range(TRANSFERS_PER_TELLER):
            src, dst = rng.sample(range(NUM_ACCOUNTS), 2)
            # Lock ordering prevents deadlock, as in any real bank.
            first, second = sorted((src, dst))
            yield Lock(first)
            yield Lock(second)
            yield Read(accounts.addr(src))      # check balance
            yield Read(accounts.addr(dst))
            yield Compute(12)                   # compute fees
            yield Write(accounts.addr(src))     # debit
            yield Write(accounts.addr(dst))     # credit
            yield Unlock(second)
            yield Unlock(first)

    return [teller(t) for t in range(num_tellers)]


def run(policy: ProtocolPolicy):
    config = MachineConfig.dash_default(policy=policy)
    machine = Machine(config)
    allocator = SharedAllocator(line_size=config.line_size)
    accounts = allocator.alloc_array(NUM_ACCOUNTS, config.line_size, "accounts")
    result = machine.run(build_programs(config.num_nodes, accounts))
    return machine, accounts, result


def main() -> None:
    wi_machine, _, wi = run(ProtocolPolicy("W-I"))
    ad_machine, accounts, ad = run(ProtocolPolicy("AD"))

    total_writes = 16 * TRANSFERS_PER_TELLER * 2
    print(f"{16} tellers x {TRANSFERS_PER_TELLER} transfers "
          f"over {NUM_ACCOUNTS} lock-protected accounts")
    print()
    print(f"{'metric':<30}{'W-I':>10}{'AD':>10}")
    for name, a, b in [
        ("execution time", wi.execution_time, ad.execution_time),
        ("read-exclusive requests", wi.counter("rxq_received"),
         ad.counter("rxq_received")),
        ("network bits", wi.network_bits, ad.network_bits),
    ]:
        print(f"{name:<30}{a:>10}{b:>10}")

    # No lost updates under either protocol: every balance version equals
    # the number of committed writes to its block.
    for machine, label in ((wi_machine, "W-I"), (ad_machine, "AD")):
        committed = sum(
            machine.checker.latest.get(accounts.addr(i) // 16, 0)
            for i in range(NUM_ACCOUNTS)
        )
        assert committed == total_writes, (label, committed, total_writes)
    print(f"\nledger check: all {total_writes} balance updates accounted for "
          "under both protocols")

    # Which account blocks did the adaptive directory classify migratory?
    migratory = []
    for i in range(NUM_ACCOUNTS):
        block = accounts.addr(i) // 16
        home = ad_machine.placement.home_of_block(block)
        entry = ad_machine.directories[home].entries.get(block)
        if entry is not None and entry.state in MIGRATORY_STATES:
            migratory.append(i)
    print(f"accounts currently classified migratory by home directories: "
          f"{migratory} ({len(migratory)}/{NUM_ACCOUNTS})")
    print(f"invalidations eliminated: "
          f"{wi.counter('invalidations_sent') - ad.counter('invalidations_sent')}")


if __name__ == "__main__":
    main()
