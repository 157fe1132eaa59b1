"""Capture ``expected.json``: the digest of every record the benchmark can
produce, for every spec any seed can select.

Run once on the commit the benchmark is defined against, from the
repository root::

    python3 perfbench/capture.py

Each workload's universe goes through the same path its passes use
(in-process flows, ``run_many`` into a store and back, or the serve
daemon), so suite tags and record shapes match what runs compare.
Re-capturing on a later commit would hide any change in outputs; a
change that moves outputs on purpose says so and re-captures in its own
commit.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from typing import Dict, List

import harness

harness.require_source()

from repro.flow import Flow, run_many  # noqa: E402
from repro.flow.spec import spec_hash  # noqa: E402
from repro.results import ResultStore  # noqa: E402

import workloads  # noqa: E402
from serving import Daemon  # noqa: E402


def _in_process(specs) -> Dict[str, str]:
    flow = Flow()
    return {spec_hash(s): harness.record_digest(flow.run(s).as_record().to_dict()) for s in specs}


def _batch(specs, scratch) -> Dict[str, str]:
    store = tempfile.mkdtemp(prefix="capture-batch-", dir=scratch)
    run_many(specs, workers=workloads.BATCH_WORKERS, store=store, suite=workloads.SUITE)
    records = ResultStore(store).load().records
    return {r.spec_hash: harness.record_digest(r.to_dict()) for r in records}


def _serve(specs, scratch) -> Dict[str, str]:
    from repro.serve import ServeClient

    with Daemon(harness.OUT_DIR / "tmp" / "capture-daemon") as daemon:
        client = ServeClient(daemon.url, timeout_s=60.0, max_retries=0)
        return {
            spec_hash(s): harness.record_digest(
                client.run(s, store=True, suite=workloads.SUITE)
            )
            for s in specs
        }


def main() -> int:
    scratch = harness.OUT_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    captured: Dict[str, Dict[str, str]] = {}
    counts: Dict[str, int] = {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            universe: List = cls(harness.DEFAULT_SEED, scratch).universe()
            if name == "batch-grid":
                digests = _batch(universe, scratch)
            elif name == "serve-closed":
                digests = _serve(universe, scratch)
            else:
                digests = _in_process(universe)
            if set(digests) != {spec_hash(s) for s in universe}:
                raise SystemExit(f"{name}: captured records do not cover the universe")
            captured[name] = dict(sorted(digests.items()))
            counts[name] = len(digests)
            print(f"{name}: {len(digests)} records", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    payload = {
        "format": 1,
        "digest": f"sha256 of the sorted-key JSON of the record without "
                  f"{list(harness.VARIABLE_KEYS)}, floats at {harness.DIGEST_DIGITS} "
                  f"significant digits, first 24 hex digits",
        "captured_with": harness.host_block(harness.DEFAULT_SEED),
        "counts": counts,
        "workloads": captured,
    }
    harness.EXPECTED_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {harness.EXPECTED_PATH.relative_to(harness.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
