"""Per-layer timings of `sternsums verify` and `mine`, at fixed degrees.

    python3 tools/bench_layers.py --label LABEL [--degrees 20 40 60 80 100 350]
        [--out DIR]

Times direct calls of the layers that `verify` runs for one degree, each
on the inputs that spectral_context(r) gives it:

- phi_matrix(r) and twist_columns(r);
- _image_half on both twist halves;
- _vanishing_dim, the four exact parity ranks of even r (none at odd r);
- check_annihilation_identities on the context;
- _certify_block on both blocks.

At degrees up to MINE_MAX_DEGREE it also times the layers of `mine r
--affine`, each on the calls that mine_all_monomials(r) makes of it:
sym_quotient, power_sum_table, annihilator_recurrence (the Berkowitz
charpoly), _class_connections, the degree's annihilator certificate
_annihilator_validates and the per-class window walks _check_class, and
then mine_all_monomials itself.  A mining layer that the checkout does not
have is left out, so that the script also times the parent of a change
that adds one.

Each layer is called REPEATS times per degree, and its median and
quartiles are reported.  The degrees default to 20, 40, 60, 80,
MINE_MAX_DEGREE and VERIFY_MAX_DEGREE.  The script imports the package
from `src/` of the checkout it sits in and writes BENCH_<label>.json into
--out (default: the `bench/` directory of that checkout), with the commit,
the Python version and nproc.  It calls private names on purpose: a
tier-1 smoke test runs it at r = 4, so a rename breaks it loudly.  Stdlib
only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sternsums import forms, recurrences, spectra  # noqa: E402
from sternsums.cli import MINE_MAX_DEGREE, VERIFY_MAX_DEGREE  # noqa: E402

REPEATS = 5
MINING = (
    "sym_quotient",
    "power_sum_table",
    "annihilator_recurrence",
    "_class_connections",
    "_annihilator_validates",
    "_check_class",
)


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _recorded(module, names, run) -> tuple:
    """run() and the arguments of every call it makes of each of module's
    names that exist, by name."""
    calls = {name: [] for name in names if hasattr(module, name)}
    real = {name: getattr(module, name) for name in calls}

    def recorder(name):
        def call(*args):
            calls[name].append(args)
            return real[name](*args)

        return call

    for name in calls:
        setattr(module, name, recorder(name))
    try:
        result = run()
    finally:
        for name, fn in real.items():
            setattr(module, name, fn)
    return result, calls


def _replay(fn, calls):
    return lambda: [fn(*args) for args in calls]


def _mining_layers(r: int) -> dict:
    """Name -> the calls that mine_all_monomials(r, include_affine=True)
    makes of that layer, and the whole call."""
    def mine():
        return recurrences.mine_all_monomials(r, None, True)

    _, calls = _recorded(recurrences, MINING, mine)
    layers = {name: _replay(getattr(recurrences, name), args) for name, args in calls.items()}
    layers["mine_all_monomials"] = mine
    return layers


def _layers(r: int) -> dict:
    """Name -> a call of that layer at degree r, on fixed inputs."""
    ctx, calls = _recorded(spectra, ["_image_half"], lambda: spectra.spectral_context(r))
    halves = calls["_image_half"]
    blocks = list(zip(("sym", "anti"), ctx.blocks))
    # the four ranks of spectral_context: X_s n Y+- on each half
    parities = [(ctx.twist_sym, 0), (ctx.twist_sym, 1), (ctx.twist_anti, 1), (ctx.twist_anti, 0)]
    layers = {
        "phi_matrix": lambda: forms.phi_matrix(r),
        "twist_columns": lambda: forms.twist_columns(r),
        "_image_half": lambda: [spectra._image_half(*half) for half in halves],
        "_vanishing_dim": lambda: [spectra._vanishing_dim(*pair) for pair in parities],
        "check_annihilation_identities": lambda: spectra.check_annihilation_identities(ctx),
        "_certify_block": lambda: [spectra._certify_block(r, *block) for block in blocks],
    }
    if r % 2:
        del layers["_vanishing_dim"]
    if r <= MINE_MAX_DEGREE:
        layers.update(_mining_layers(r))
    return layers


def _summary(samples: list) -> dict:
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = median = q3 = samples[0]
    return {"median_s": median, "q1_s": q1, "q3_s": q3}


def measure(degrees: list) -> dict:
    results = {}
    for r in degrees:
        layers = _layers(r)
        samples = {name: [] for name in layers}
        # round robin, so that a slow spell of the host spreads over layers
        for _ in range(REPEATS):
            for name, call in layers.items():
                start = time.perf_counter()
                call()
                samples[name].append(time.perf_counter() - start)
        results[str(r)] = {name: _summary(s) for name, s in samples.items()}
        medians = (f"{name} {1e3 * v['median_s']:.2f}" for name, v in results[str(r)].items())
        print(f"r={r}: {'  '.join(medians)} (ms, median of {REPEATS})")
    return results


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument(
        "--degrees",
        type=int,
        nargs="+",
        default=[20, 40, 60, 80, MINE_MAX_DEGREE, VERIFY_MAX_DEGREE],
    )
    parser.add_argument("--out", type=Path, default=ROOT / "bench")
    args = parser.parse_args(argv)
    if any(not 1 <= r <= VERIFY_MAX_DEGREE for r in args.degrees):
        parser.error(f"need degrees in 1..{VERIFY_MAX_DEGREE}")
    dirty = _git("status", "--porcelain", "--", "src")
    document = {
        "label": args.label,
        "commit": _git("rev-parse", "HEAD"),
        "src_modified": None if dirty is None else bool(dirty),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "repeats": REPEATS,
        "layers": measure(args.degrees),
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
