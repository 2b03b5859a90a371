"""The README's library example runs as written against the package exports."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    final_loss, accuracy = map(float, capsys.readouterr().out.split())
    assert final_loss > 0.0
    assert 0.0 <= accuracy <= 1.0
