"""Single-site controller mutants that ``explore`` must kill.

Each mutant monkeypatches one handler of the real cache or directory
controller, so it is a bug in the code the simulator runs.  The
exploration must raise at the bound given; the pattern names the check
that kills it.  EXPERIMENTS.md ("Model checking") keeps the table,
including the mutants the invariants cannot see.
"""

import pytest

from repro.coherence.cache_ctrl import CacheController
from repro.coherence.directory import DirectoryController
from repro.coherence.states import DIR_MD
from repro.protocols import policy_for
from repro.verify import Harness, ProtocolViolation, explore


def inv_sends_no_iack(monkeypatch):
    real = CacheController._on_invalidate

    def mutant(self, msg):
        self.transport.send = lambda msg: None
        try:
            real(self, msg)
        finally:
            del self.transport.send

    monkeypatch.setattr(CacheController, "_on_invalidate", mutant)


def owner_rxp_takes_no_miack_lock(monkeypatch):
    real = CacheController._on_rxp

    def mutant(self, msg):
        msg.miack_needed = False
        real(self, msg)

    monkeypatch.setattr(CacheController, "_on_rxp", mutant)


def rxp_one_invalidation_short(monkeypatch):
    real = DirectoryController._send_rxp

    def mutant(self, at, dst, block, *, n_invals, version, trace=0):
        real(self, at, dst, block, n_invals=n_invals - 1, version=version,
             trace=trace)

    monkeypatch.setattr(DirectoryController, "_send_rxp", mutant)


def nomig_leaves_block_migratory(monkeypatch):
    real = DirectoryController._on_nomig

    def mutant(self, row, msg):
        real(self, row, msg)
        self._states[row] = DIR_MD

    monkeypatch.setattr(DirectoryController, "_on_nomig", mutant)


def wup_retires_before_uacks(monkeypatch):
    real = CacheController._on_wup

    def mutant(self, msg):
        msg.n_invals = 0
        real(self, msg)

    monkeypatch.setattr(CacheController, "_on_wup", mutant)


def raced_read_fill_installs(monkeypatch):
    real = CacheController._on_invalidate

    def mutant(self, msg):
        real(self, msg)
        mshr = self.mshrs.get(msg.block)
        if mshr is not None:
            mshr.invalidate_on_fill = False

    monkeypatch.setattr(CacheController, "_on_invalidate", mutant)


MUTANTS = [
    pytest.param(inv_sends_no_iack, "AD", 2, 2, "stuck", id="inv-sends-no-iack"),
    pytest.param(owner_rxp_takes_no_miack_lock, "W-I", 2, 2,
                 "writeback .* directory owner", id="rxp-no-miack-lock"),
    pytest.param(rxp_one_invalidation_short, "W-I", 2, 2,
                 "no MSHR for <Iack", id="rxp-n-invals-short"),
    pytest.param(nomig_leaves_block_migratory, "AD", 2, 3,
                 "MD with no owner", id="nomig-stays-migratory"),
    pytest.param(wup_retires_before_uacks, "Dragon", 2, 2,
                 "no MSHR for <Uack", id="wup-skips-uacks"),
    pytest.param(raced_read_fill_installs, "W-I", 2, 2,
                 "writable beside shared", id="raced-read-fill-installs"),
]


@pytest.mark.parametrize("mutate, protocol, caches, ops, killed_by", MUTANTS)
def test_explore_kills_mutant(monkeypatch, mutate, protocol, caches, ops, killed_by):
    mutate(monkeypatch)
    with pytest.raises(ProtocolViolation, match=killed_by):
        explore(Harness(caches, ops, policy_for(protocol)))
