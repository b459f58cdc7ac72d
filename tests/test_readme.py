"""The README's library quick start runs as written."""
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    match = re.search(r"^## Library quick start\n+```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no python block under '## Library quick start'"
    return match.group(1)


def test_library_quick_start_runs(capsys):
    namespace = {}
    exec(compile(_quick_start(), str(README), "exec"), namespace)
    # the block's own comment promises this alignment
    assert np.allclose(namespace["report"].pca_alignment, 1.0, rtol=0.0, atol=1e-7)
    scores = namespace["scores"]
    assert scores.shape == (len(namespace["encoders"]),)
    assert np.argmax(scores) == 0  # the noise-free encoder
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1].startswith("0 ")
