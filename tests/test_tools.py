"""Smoke tests of the scripts under tools/.

tools/bench_layers.py times private layers of verify and mine by name, so a
rename in the library breaks it; running it here at a small degree makes that
break loud.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_LAYERS = Path(__file__).resolve().parent.parent / "tools" / "bench_layers.py"


def test_bench_layers_runs_at_r4(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH_LAYERS), "--label", "smoke", "--degrees", "4", "5",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    document = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert document["label"] == "smoke" and document["repeats"] == 5
    assert document["python"] and document["nproc"] >= 1
    assert "commit" in document
    layers = [
        "phi_matrix",
        "twist_columns",
        "_image_half",
        "_vanishing_dim",
        "check_annihilation_identities",
        "_certify_block",
        "sym_quotient",
        "power_sum_table",
        "annihilator_recurrence",
        "_class_connections",
        "_annihilator_validates",
        "_check_class",
        "mine_all_monomials",
    ]
    assert list(document["layers"]["4"]) == layers
    # odd degrees take no parity rank
    assert list(document["layers"]["5"]) == [n for n in layers if n != "_vanishing_dim"]
    for timings in document["layers"].values():
        for t in timings.values():
            assert 0 <= t["q1_s"] <= t["median_s"] <= t["q3_s"]
