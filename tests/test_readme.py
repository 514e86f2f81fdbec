"""The README cannot drift from the API: its example session runs as a doctest,
its Library section names exactly ``casteljau.__all__``, and its CLI synopsis
lists exactly the flags each experiment takes."""

import argparse
import builtins
import doctest
import re
from pathlib import Path

import casteljau
from casteljau import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert blocks, "README.md has no fenced python block"
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    report = []
    for i, block in enumerate(blocks):
        test = parser.get_doctest(block, {}, f"README.md python block {i + 1}", str(README), 0)
        runner.run(test, out=report.append)
    failed, attempted = runner.summarize(verbose=False)
    assert attempted > 0
    assert failed == 0, "".join(report)


def test_library_section_matches_public_api():
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Library\n(.*?)^## ", text, flags=re.M | re.S)
    assert section, "README.md has no '## Library' section"
    documented = {
        name
        for name in re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*\))?`", section.group(1))
        if len(name) > 1 and not hasattr(builtins, name)
    }
    assert documented == set(casteljau.__all__)
    assert all(hasattr(casteljau, name) for name in casteljau.__all__)


def _subcommand_flags() -> dict[str, set[str]]:
    (sub,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        name: {flag for a in parser._actions for flag in a.option_strings}
        - {"-h", "--help"}
        for name, parser in sub.choices.items()
    }


def test_cli_synopsis_matches_parser():
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", text, flags=re.M | re.S)
    assert section, "README.md has no sh block under '## CLI'"
    documented = {}
    for line in section.group(1).splitlines():
        prog, experiment, *rest = line.split()
        assert prog == "casteljau"
        documented[experiment] = set(re.findall(r"--[\w-]+", " ".join(rest)))
    assert documented == _subcommand_flags()
