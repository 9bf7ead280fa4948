"""README's ```python blocks run as doctests, each in a fresh namespace, so
the documented API and the values it prints cannot drift from the package."""

import doctest
import pathlib
import re

import pytest

import rootmean

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
# the closing fence ends a block; doctest alone would read it as output
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


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
