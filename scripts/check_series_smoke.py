#!/usr/bin/env python
"""CI assertions for the windowed time-series smoke.

Modes, matching the CI invocations:

  check_series_smoke.py --serial A.jsonl --parallel B.jsonl
      Both series files must validate against the v1 series schema,
      be non-empty, and be byte-identical: a --jobs N grid merges
      worker series into exactly the serial collector's output.

  check_series_smoke.py --series S.jsonl [--expect-generation]
      Single-file validation: schema-clean, non-empty, replay series
      present; with --expect-generation, PATHFINDER learning-dynamics
      series (gen.*, snn.*) must be present too.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs import read_series  # noqa: E402


def fail(message):
    print(f"FAIL: {message}")
    raise SystemExit(1)


def check_one(path, expect_generation=False):
    records = read_series(path)  # raises ConfigError on schema violations
    if not records:
        fail(f"{path}: no series records")
    names = {record["name"] for record in records}
    if not any(name.startswith("replay.") for name in names):
        fail(f"{path}: no replay.* series; got {sorted(names)}")
    for record in records:
        window = record["window"]
        for start, _value in record["points"]:
            if start % window:
                fail(f"{path}: {record['name']}: start {start} not "
                     f"aligned to window {window}")
    if expect_generation:
        for prefix in ("gen.", "snn."):
            if not any(name.startswith(prefix) for name in names):
                fail(f"{path}: no {prefix}* series; got {sorted(names)}")
    print(f"ok: {path}: {len(records)} series, "
          f"{sum(len(r['points']) for r in records)} points")
    return records


def check_parity(serial_path, parallel_path):
    serial = check_one(serial_path)
    check_one(parallel_path)
    a = Path(serial_path).read_bytes()
    b = Path(parallel_path).read_bytes()
    if a != b:
        fail(f"{serial_path} and {parallel_path} differ: parallel series "
             "merge is not bit-identical to serial")
    print(f"ok: serial == parallel byte-for-byte "
          f"({len(serial)} series, {len(a)} bytes)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--serial")
    parser.add_argument("--parallel")
    parser.add_argument("--series")
    parser.add_argument("--expect-generation", action="store_true")
    args = parser.parse_args()
    if bool(args.serial) != bool(args.parallel):
        parser.error("--serial and --parallel go together")
    if not (args.serial or args.series):
        parser.error("nothing to check")
    if args.serial:
        check_parity(args.serial, args.parallel)
    if args.series:
        check_one(args.series, expect_generation=args.expect_generation)


if __name__ == "__main__":
    main()
