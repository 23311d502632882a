"""README's Python examples, run in order as one session."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_examples_run():
    # the L-BFGS example meets JitterError at some of its evaluations, which
    # the optimizer answers with 1e12; only the documented calls are checked
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    session = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), session)
    assert np.all(np.isfinite(session["mean"])) and np.all(np.isfinite(session["var"]))
    assert np.all(session["var"] > 0)
    assert np.all(np.isfinite(session["result"].theta))
    assert np.isfinite(session["model"].log_marginal_likelihood())
