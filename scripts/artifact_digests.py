#!/usr/bin/env python3
"""Record or compare the sha256 and row count of every artifact in a work directory.

    python scripts/artifact_digests.py WORKDIR                  # print JSON
    python scripts/artifact_digests.py WORKDIR > before.json    # record
    python scripts/artifact_digests.py WORKDIR --against before.json

A row is a non-blank line that does not start with `#` (the lineage line and
comments are not rows); binary artifacts (`*.bin`) have no row count. With
`--against`, every artifact named in either record must match in digest and
rows; the differences are printed and the exit status is 1. Use it to show
that a change leaves every artifact of a config and seed byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path


def artifact_record(path: Path) -> dict:
    data = path.read_bytes()
    rows = None
    if path.suffix != ".bin":
        rows = sum(
            1 for line in data.split(b"\n") if line.strip() and not line.startswith(b"#")
        )
    return {"sha256": hashlib.sha256(data).hexdigest(), "rows": rows}


def workdir_record(workdir: Path) -> dict[str, dict]:
    files = (path for path in sorted(workdir.iterdir()) if path.is_file())
    return {path.name: artifact_record(path) for path in files}


def differences(have: dict[str, dict], want: dict[str, dict]) -> list[str]:
    out = []
    for name in sorted(set(have) | set(want)):
        if name not in have:
            out.append(f"{name}: missing")
        elif name not in want:
            out.append(f"{name}: not in the reference record")
        elif have[name] != want[name]:
            out.append(f"{name}: {want[name]} -> {have[name]}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--against", type=Path, help="compare with a recorded JSON file")
    args = parser.parse_args(argv)
    if not args.workdir.is_dir():
        parser.error(f"not a directory: {args.workdir}")
    if args.against is not None and not args.against.is_file():
        parser.error(f"no such record: {args.against}")
    have = workdir_record(args.workdir)
    if args.against is None:
        print(json.dumps(have, indent=1, sort_keys=True))
        return 0
    diffs = differences(have, json.loads(args.against.read_text(encoding="utf-8")))
    for line in diffs:
        print(line)
    if diffs:
        return 1
    print(f"{len(have)} artifacts identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
