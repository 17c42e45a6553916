"""Transfer-ledger byte-identity gate: lazy vs eager quick sweeps.

The ledger's whole contract is that it changes *when* bytes move, never
*what* bytes are observed (DESIGN.md §14), and deferred kernels change
only when numerics run (§9).  This gate runs the serial quick figure
sweep three times in fresh interpreters — with the default engines
(deferred kernels, lazy ledger), with eager transfers, and fully eager
(eager kernels as well, so nothing records or replays; each child sets
:mod:`repro.hw.gpu`'s two defaults before the first Gpu exists) —
hashes every ``SpecOutcome.canonical_bytes()`` in each, and
fails on any spec whose three digests are not equal.  It also fails if
the lazy sweep's measured
``elided_fraction`` drops below a floor: an engine that stops eliding is
paying the ledger's bookkeeping for nothing, which is its own
regression even while outputs stay identical.

Run directly (``python benchmarks/bench_transfer_identity.py``) or via
pytest; writes ``BENCH_transfer_identity.json`` at the repo root.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = ROOT / "BENCH_transfer_identity.json"

#: The sweep's measured elided fraction sits around 0.5 (batch rounds
#: elide nearly everything, lazy/rolling rounds legitimately almost
#: nothing); the floor trips if a change quietly stops the elision.
ELIDED_FLOOR = 0.25

_CHILD = r"""
import hashlib, json, sys
import repro.hw.gpu as gpu
from repro.experiments.executor import expand
from repro.hw.memory import ledger_counters, reset_ledger_counters

gpu.DEFAULT_DEFER_NUMERICS = sys.argv[1] == "defer"
gpu.DEFAULT_DEFER_TRANSFERS = sys.argv[2] == "defer"

reset_ledger_counters()
specs = expand(["fig7", "fig8", "fig9", "fig10", "fig11", "fig12"],
               quick=True)
digests = {}
for spec in specs:
    outcome = spec.execute()
    digests[spec.key()] = hashlib.sha256(
        outcome.canonical_bytes()
    ).hexdigest()
print(json.dumps({"digests": digests, "ledger": ledger_counters()}))
"""


#: Engines per sweep: ``(kernels, transfers)``.  ``lazy`` is the
#: default engine.
SWEEPS = {
    "lazy": ("defer", "defer"),
    "eager": ("defer", "eager"),
    "fully_eager": ("eager", "eager"),
}


def _run_sweep(kernels, transfers):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, kernels, transfers],
        capture_output=True, text=True, check=True, env=env,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_benchmark(output_path=OUTPUT_PATH):
    sweeps = {name: _run_sweep(*env) for name, env in SWEEPS.items()}
    lazy = sweeps["lazy"]
    keys = set().union(*(sweep["digests"] for sweep in sweeps.values()))
    divergent = sorted(
        key for key in keys
        if len({sweep["digests"].get(key) for sweep in sweeps.values()}) != 1
    )
    report = {
        "spec_count": len(lazy["digests"]),
        "divergent_specs": divergent,
        "identical": not divergent,
        "lazy_ledger": lazy["ledger"],
        "eager_ledger": sweeps["eager"]["ledger"],
        "fully_eager_ledger": sweeps["fully_eager"]["ledger"],
        "elided_fraction": lazy["ledger"]["elided_fraction"],
        "elided_floor": ELIDED_FLOOR,
        "elision_ok": lazy["ledger"]["elided_fraction"] >= ELIDED_FLOOR,
    }
    output_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def test_lazy_and_eager_sweeps_are_byte_identical():
    report = run_benchmark()
    assert report["identical"], (
        f"{len(report['divergent_specs'])} spec(s) diverge between the "
        f"lazy, eager-transfer and fully eager engines: "
        f"{report['divergent_specs'][:5]}"
    )
    assert report["elision_ok"], (
        f"lazy sweep elided_fraction {report['elided_fraction']:.3f} fell "
        f"below the {ELIDED_FLOOR} floor: the ledger has stopped eliding"
    )
    # The eager sweeps must be genuinely eager (no ledger activity at all).
    assert report["eager_ledger"]["bytes_deferred"] == 0
    assert report["fully_eager_ledger"]["bytes_deferred"] == 0


def main():
    report = run_benchmark()
    print(json.dumps(report, indent=2, sort_keys=True))
    if not report["identical"]:
        print("DIVERGENCE between the three sweeps", file=sys.stderr)
        return 1
    if not report["elision_ok"]:
        print(
            f"elided_fraction {report['elided_fraction']:.3f} below the "
            f"{ELIDED_FLOOR} floor",
            file=sys.stderr,
        )
        return 1
    print(
        f"{report['spec_count']} specs byte-identical; "
        f"elided_fraction {report['elided_fraction']:.3f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
