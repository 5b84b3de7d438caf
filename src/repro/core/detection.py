"""Migratory-sharing detection (the paper's Section 2.2 and 3.3).

Migratory sharing is the global access pattern::

    (R_i)(R_i)* (W_i) (R_i|W_i)*  (R_j)(R_j)* (W_j) (R_j|W_j)* ...

i.e. each processor in turn reads, then writes, a block before the next
processor touches it.  Home observes this as the request stream
``Rr_i Rxq_i Rr_j Rxq_j ...`` and can nominate the block as migratory when
a read-exclusive request arrives from processor *i* such that

1. the number of cached copies is exactly two (``N == 2``), and
2. the last writer is valid and is a *different* processor (``LW != i``).

Condition (1) rejects sequences with intervening readers such as
``Rxq_i Rr_j Rr_k Rxq_j``; condition (2) rejects producer-consumer
sequences such as ``Rxq_i Rr_j Rxq_i Rr_j``.  The last-writer pointer must
be invalidated whenever the sharing list grows beyond two so that silent
replacements (``Rr_i Rxq_i Rr_j Rr_k Repl_k Rxq_j``) cannot cause a false
nomination.

:func:`should_nominate` is that condition.  The home directory
(:mod:`repro.coherence.directory`) and the snoopy memory controller
(:mod:`repro.snoopy.protocol`) both call it, and each keeps its own LW.
"""

from __future__ import annotations

from typing import Optional


def should_nominate(
    num_copies: int,
    requester: int,
    last_writer: Optional[int],
) -> bool:
    """The paper's nomination condition ``Cond`` of Figure 4.

    ``last_writer is None`` encodes an invalid last-writer pointer (its
    valid bit is reset).
    """
    return num_copies == 2 and last_writer is not None and last_writer != requester
