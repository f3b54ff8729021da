"""Every example in ``examples/`` runs and prints its documented figures.

Each case runs one example as ``__main__`` (default arguments) and
asserts lines of its output, so an example that drifts from the numbers
it shows, or stops running, fails here.  An example without a case
fails :func:`test_every_example_has_a_case`.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

#: Example stem -> lines its output must contain.
FIGURES = {
    "quickstart": [
        "m5-hpt          122.9    1.37      2880        0         0.000",
        "M5 vs DAMON: 16.9% faster",
    ],
    "policy_design": [
        "custom (HPT-driven)        126.7    1.32      3732      660",
        "pending _HPA entries: 159, mean hot-word density 1.7/64",
        "Elector evaluations: 62, migrations triggered: 51",
    ],
    "profiling_with_pac_wac": [
        "pages touched: 6144",
        "P(page has <= 16 unique words accessed) = 0.85",
        "access-count ratio vs PAC top-K: 0.164",
    ],
    "redis_tail_latency": [
        "damon           0.74    +43.9%           1.229        9216",
        "m5-hwt          0.73    +45.6%           0.000        5272",
        "best p99: m5-hwt",
    ],
    "trace_pipeline": [
        "LLC hit rate     : 54.40%",
        "DRAM trace length: 91209 ",
        "CM-Sketch 32K   : access-count ratio 0.975",
        "Space-Saving 50 : access-count ratio 0.150",
    ],
}


def test_every_example_has_a_case():
    assert sorted(p.stem for p in EXAMPLES.glob("*.py")) == sorted(FIGURES)


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_example_prints_its_figures(name, capsys, monkeypatch):
    path = EXAMPLES / f"{name}.py"
    # Examples read optional arguments from sys.argv; run them bare.
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    for line in FIGURES[name]:
        assert line in out
