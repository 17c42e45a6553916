"""Golden SIGSEGV stream: where, and in what order, every quick spec faults.

Digests and pins cover fault *counts* and the virtual time faults charge;
nothing else looks at the faults themselves.  This test runs every quick
spec of Figures 7-12 and ``contracts``, plus the ``chaos`` and
``failover`` sweeps, at their default seeds, and compares the SHA-256 of
each spec's delivered ``(address, kind)`` sequence with
``golden_segv_stream.json``.  The fixture was recorded from the engine
that still kept per-page protection bits for shared regions, so any
change to how the MMU decides an access must leave every stream as it
was.

Regenerate the fixture only for a deliberate change to the fault stream::

    PYTHONPATH=src python tests/integration/test_segv_stream.py
"""

import hashlib
import json
import pathlib

from repro.experiments.executor import expand
from repro.os.signals import SignalDispatcher

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_segv_stream.json"

EXPERIMENTS = (
    "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "contracts",
    "chaos", "failover",
)


def record_streams():
    """One ``{key, deliveries, sha256}`` record per spec, in sweep order."""
    real_deliver = SignalDispatcher.deliver
    stream = []

    def deliver(self, info):
        stream.append(f"{info.address:#x}:{info.access}\n")
        return real_deliver(self, info)

    SignalDispatcher.deliver = deliver
    try:
        records = []
        for spec in expand(EXPERIMENTS, quick=True):
            stream.clear()
            spec.execute()
            records.append({
                "key": spec.key(),
                "deliveries": len(stream),
                "sha256": hashlib.sha256(
                    "".join(stream).encode()
                ).hexdigest(),
            })
        return records
    finally:
        SignalDispatcher.deliver = real_deliver


def test_segv_stream_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    records = record_streams()
    assert [r["key"] for r in records] == [g["key"] for g in golden]
    mismatched = [
        (record["key"], record["deliveries"], reference["deliveries"])
        for record, reference in zip(records, golden)
        if record != reference
    ]
    assert not mismatched, f"{len(mismatched)} spec(s) moved: {mismatched[:3]}"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record_streams(), indent=1) + "\n")
