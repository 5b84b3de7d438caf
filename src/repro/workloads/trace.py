"""Trace recording and trace-driven replay.

The paper's simulator is *program-driven* (Section 4.1): the memory
reference stream reacts to architectural timing, "in contrast to e.g.
trace-driven simulation, where the memory reference trace is not
affected by timing".

This module provides both sides of that comparison:

* :class:`TraceRecorder` taps a workload's programs and records every
  operation each processor actually executed;
* :func:`replay_programs` turns recorded traces back into programs whose
  *data-dependent decisions are frozen* — dynamic task assignment, lock
  acquisition order effects on control flow, and so on are whatever they
  were during recording;
* a simple line-oriented text format for saving traces to disk.

The methodological artifact the paper warns about can then be measured
directly: record a trace under one protocol, replay it under another,
and compare with a native program-driven run (see
``tests/workloads/test_trace.py``).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, TextIO

from repro.cpu.ops import OP_NAMES, Op
from repro.machine.config import MachineConfig
from repro.machine.result import RunResult
from repro.machine.system import Machine


class TraceRecorder:
    """Records the operations each processor executes during a run."""

    def __init__(self, num_processors: int) -> None:
        self.traces: List[List[Op]] = [[] for _ in range(num_processors)]

    def wrap(self, programs: Sequence[Iterator[Op]]) -> List[Iterator[Op]]:
        """Wrap each program so executed ops land in :attr:`traces`."""
        if len(programs) != len(self.traces):
            raise ValueError(
                f"expected {len(self.traces)} programs, got {len(programs)}"
            )
        return [
            self._tap(program, self.traces[index])
            for index, program in enumerate(programs)
        ]

    @staticmethod
    def _tap(program: Iterator[Op], log: List[Op]) -> Iterator[Op]:
        for op in program:
            log.append(op)
            yield op


def replay_programs(traces: Sequence[Sequence[Op]]) -> List[Iterator[Op]]:
    """Programs that replay recorded traces verbatim (trace-driven)."""
    return [iter(list(trace)) for trace in traces]


def record_run(
    config: MachineConfig, programs: Sequence[Iterator[Op]]
) -> "RecordedRun":
    """Run ``programs`` on a machine built from ``config``, recording."""
    machine = Machine(config)
    recorder = TraceRecorder(config.num_nodes)
    result = machine.run(recorder.wrap(list(programs)))
    return RecordedRun(result=result, traces=recorder.traces)


class RecordedRun:
    """A completed run plus the traces it produced."""

    def __init__(self, result: RunResult, traces: List[List[Op]]) -> None:
        self.result = result
        self.traces = traces

    @property
    def total_ops(self) -> int:
        return sum(len(trace) for trace in self.traces)

    def replay(self, config: MachineConfig) -> RunResult:
        """Trace-driven re-simulation under a (possibly different) config."""
        machine = Machine(config)
        return machine.run(replay_programs(self.traces))


# ----------------------------------------------------------------------
# On-disk format: one line per op, "processor opcode operand".
# ----------------------------------------------------------------------
def save_traces(traces: Sequence[Sequence[Op]], stream: TextIO) -> None:
    stream.write(f"# repro trace, {len(traces)} processors\n")
    for processor, trace in enumerate(traces):
        for code, arg in trace:
            stream.write(f"{processor} {code} {arg}\n")


def load_traces(stream: TextIO) -> List[List[Op]]:
    traces: List[List[Op]] = []
    for line in stream:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        processor_text, code_text, arg_text = line.split()
        processor, code, arg = int(processor_text), int(code_text), int(arg_text)
        if code not in OP_NAMES:
            raise ValueError(f"unknown opcode {code} in trace")
        while len(traces) <= processor:
            traces.append([])
        traces[processor].append((code, arg))
    return traces
