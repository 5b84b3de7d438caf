#!/usr/bin/env python
"""Watch the home directory classify access patterns (Figure 4).

Runs the request streams of the paper's Section 3.3 on the simulator's
own cache controllers and home directory, one processor operation at a
time, and prints home's state after each operation with the messages it
caused, showing why each sequence is (or is not) nominated migratory.
LW, the last-writer pointer, is not read while a block is migratory.

Run:  python examples/detection_trace.py
"""

from repro.protocols import policy_for
from repro.verify.harness import BLOCK, Harness

LABELS = {"read": "R", "write": "W", "evict": "Repl"}


def trace(title: str, ops) -> None:
    """ops: (action, node) steps, action one of read / write / evict."""
    harness = Harness(num_caches=4, policy=policy_for("AD"))
    home = harness.directory.entry(BLOCK)
    print(f"--- {title}")
    print(f"{'op':<8}{'home after':<20}{'sharers':<10}{'LW':<4}messages")
    for action, node in ops:
        delivered = harness.perform(action, node)
        messages = " ".join(msg.kind.value for msg in delivered) or "(no messages)"
        state = home.state.name.title().replace("_", "-")
        sharers = "{" + ",".join(map(str, sorted(home.sharers))) + "}"
        lw = "-" if home.last_writer is None else str(home.last_writer)
        label = f"{LABELS[action]}_{node}"
        print(f"{label:<8}{state:<20}{sharers:<10}{lw:<4}{messages}")
    print()


def main() -> None:
    trace(
        "Migratory sharing (paper expression (1)): nominated at W_1",
        [("read", 0), ("write", 0), ("read", 1), ("write", 1),
         ("read", 2), ("write", 2), ("read", 3)],
    )
    trace(
        "Producer-consumer (Rxq_0 Rr_1 Rxq_0 Rr_1): never nominated (LW==i)",
        [("write", 0), ("read", 1), ("write", 0), ("read", 1), ("write", 0)],
    )
    trace(
        "Intervening reader (Rxq_0 Rr_1 Rr_2 Rxq_1): never nominated (N==3)",
        [("write", 0), ("read", 1), ("read", 2), ("write", 1)],
    )
    trace(
        "Silent replacement (Rr_0 Rxq_0 Rr_1 Rr_2 Repl_2 Rxq_1): "
        "LW valid bit protects against stale presence",
        [("read", 0), ("write", 0), ("read", 1), ("read", 2), ("evict", 2),
         ("write", 1)],
    )
    trace(
        "Read-only ping-pong after nomination: NoMig reverts the block",
        [("read", 0), ("write", 0), ("read", 1), ("write", 1), ("read", 2),
         ("read", 3), ("read", 2)],
    )


if __name__ == "__main__":
    main()
