"""The settable values, counted: CLI options, ``REPRO_*`` environment
variables and keyword knobs.

Each count equals a constant below, so a change that adds or removes a
knob shows the change in its diff.
"""

import argparse
import dataclasses
import inspect
import re
from pathlib import Path

from repro.cli import build_parser
from repro.experiments.parallel import run_many
from repro.serve.client import ServeClient
from repro.serve.faults import ServeFaultPlan
from repro.serve.server import ExperimentServer

SRC = Path(__file__).resolve().parents[1] / "src"

#: Option actions of the parser and of every subparser, ``--help`` excluded.
CLI_OPTIONS = 72
#: Distinct ``REPRO_*`` names anywhere under ``src/``.
ENV_VARIABLES = 3
#: Defaulted parameters of ``run_many``, ``ExperimentServer`` and
#: ``ServeClient``, plus the ``init`` fields of ``ServeFaultPlan``.
KEYWORD_KNOBS = 16


def _options(parser):
    count = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            # Aliases map several names to one subparser: count it once.
            for sub in dict.fromkeys(action.choices.values()):
                count += _options(sub)
        elif action.option_strings and not isinstance(
            action, argparse._HelpAction
        ):
            count += 1
    return count


def _defaulted(function):
    return sum(
        1
        for param in inspect.signature(function).parameters.values()
        if param.default is not inspect.Parameter.empty
    )


def test_cli_option_count():
    assert _options(build_parser()) == CLI_OPTIONS


def test_environment_variable_count():
    names = set()
    for path in SRC.rglob("*.py"):
        names.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    assert len(names) == ENV_VARIABLES, sorted(names)


def test_keyword_knob_count():
    knobs = (
        _defaulted(run_many)
        + _defaulted(ExperimentServer.__init__)
        + _defaulted(ServeClient.__init__)
        + sum(1 for f in dataclasses.fields(ServeFaultPlan) if f.init)
    )
    assert knobs == KEYWORD_KNOBS
