"""README's ```python blocks run as doctests, each in a fresh namespace, and
its CLI samples are re-run in-process, so the documented API and the values
it prints cannot drift from the package."""

import doctest
import json
import pathlib
import re
import shlex

import pytest

import rootmean
from rootmean import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
# the closing fence ends a block; doctest alone would read it as output
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
# each "$ rootmean ARGS" line and the first line printed under it
SAMPLES = re.findall(r"^\$ rootmean (.+)\n(.+)$", README.read_text(), re.M)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs_as_doctest(index):
    parser = doctest.DocTestParser()
    test = parser.get_doctest(BLOCKS[index], {}, f"README.md python block {index}", str(README), 0)
    assert test.examples
    report = []
    runner = doctest.DocTestRunner(verbose=False)
    runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)


def test_imported_names_are_public():
    for block in BLOCKS:
        for names in re.findall(r"from rootmean import ([\w, ]+)", block):
            for name in names.split(","):
                assert name.strip() in rootmean.__all__, name


def parse_record(line):
    """A text or JSON record as a dict, without its elapsed_ms."""
    if line.startswith("{"):
        record = json.loads(line)
    else:
        record = dict(part.split("=", 1) for part in shlex.split(line))
    del record["elapsed_ms"]
    return record


def test_readme_has_a_sample_of_each_subcommand():
    commands = {args.split()[0] for args, _ in SAMPLES}
    assert sorted(commands) == ["bench", "floor", "mean", "sum", "verify"]


# bench prints timings, not a record
@pytest.mark.parametrize(
    "args,line", [pytest.param(*s, id=s[0]) for s in SAMPLES if not s[0].startswith("bench")]
)
def test_cli_sample_reproduces(capsys, args, line):
    assert cli.main(shlex.split(args)) == 0
    out = capsys.readouterr().out
    assert parse_record(out) == parse_record(line)
