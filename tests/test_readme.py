"""The README's example session runs as a doctest, so it cannot drift from the API."""

import doctest
import re
from pathlib import Path

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
