"""``repro dataset``: convert, inspect and verify dataset files.

Three verbs, one per operational question:

* ``convert IN OUT`` — re-serialise a dataset between the JSON
  ``perf-dataset-v2`` family (``.json`` / ``.json.gz``) and
  the binary columnar ``perf-dataset-v3`` (``.v3``), either direction,
  autodetected from the output extension (``--format`` overrides);
* ``info PATH`` — header, axes and section summary without loading
  the timing column (``--json`` for machine consumption);
* ``verify PATH`` — full integrity walk: every checksum including the
  timing column, plus a load round-trip.  Exit 1 on damage.

Exit codes follow ``repro doctor``: 0 usable, 1 damaged/unusable,
2 bad invocation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..errors import DatasetError
from ..study.dataset import DATASET_FORMAT, PerfDataset, peek_format
from .columnar import COLUMNAR_FORMAT, ColumnarDataset, inspect_columnar

__all__ = ["main"]


def _convert(args) -> int:
    fmt: Optional[str] = None if args.format == "auto" else args.format
    try:
        dataset = PerfDataset.load(args.input)
    except DatasetError as exc:
        print(f"[dataset] {exc}", file=sys.stderr)
        return 1
    try:
        dataset.save(args.output, format=fmt)
    except (DatasetError, OSError) as exc:
        print(f"[dataset] cannot write {args.output!r}: {exc}", file=sys.stderr)
        return 1
    resolved = fmt or ("v3" if args.output.endswith(".v3") else "v2")
    print(
        f"converted {args.input} ({dataset.n_measurements} measurements, "
        f"{len(dataset)} tests) -> {args.output} [{resolved}]"
    )
    return 0


def _info(args) -> int:
    fmt = peek_format(args.path)
    try:
        if fmt == COLUMNAR_FORMAT:
            info = inspect_columnar(args.path)
        else:
            dataset = PerfDataset.load(args.path)
            info = {
                "format": DATASET_FORMAT,
                "path": args.path,
                "tests": len(dataset),
                "cells": dataset.n_measurements,
                "apps": dataset.apps,
                "inputs": dataset.graphs,
                "chips": dataset.chips,
                "configs": len(dataset.configs),
            }
    except DatasetError as exc:
        print(f"[dataset] {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(f"format:   {info['format']}")
    print(f"tests:    {info['tests']}")
    print(f"cells:    {info['cells']}")
    if "timings" in info:
        print(f"timings:  {info['timings']}")
    print(f"apps:     {len(info['apps'])} ({', '.join(info['apps'][:6])}" + (", ..." if len(info["apps"]) > 6 else "") + ")")
    print(f"inputs:   {len(info['inputs'])} ({', '.join(info['inputs'])})")
    print(f"chips:    {len(info['chips'])} ({', '.join(info['chips'])})")
    print(f"configs:  {info['configs']}")
    if "sections" in info:
        print(f"file:     {info['file_bytes']} bytes")
        for name, sec in info["sections"].items():
            print(f"  section {name:8s} offset={sec['offset']:<10d} {sec['bytes']} bytes")
    return 0


def _verify(args) -> int:
    try:
        dataset = PerfDataset.load(args.path)
        if isinstance(dataset, ColumnarDataset):
            dataset.verify()
    except DatasetError as exc:
        print(f"[dataset] FAIL: {exc}", file=sys.stderr)
        return 1
    fmt = COLUMNAR_FORMAT if isinstance(dataset, ColumnarDataset) else DATASET_FORMAT
    print(
        f"[dataset] OK: {args.path} [{fmt}] — {dataset.n_measurements} "
        f"measurements across {len(dataset)} tests, all checksums verified"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro dataset",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="verb")

    convert = sub.add_parser(
        "convert", help="re-serialise a dataset (v2 JSON <-> v3 columnar)"
    )
    convert.add_argument("input", help="source dataset (.json/.json.gz/.v3)")
    convert.add_argument("output", help="destination dataset")
    convert.add_argument(
        "--format",
        choices=("auto", "v2", "v3"),
        default="auto",
        help="output format (default: auto — v3 when OUTPUT ends in .v3)",
    )

    info = sub.add_parser(
        "info", help="header/axes/section summary (no timing load)"
    )
    info.add_argument("path")
    info.add_argument("--json", action="store_true", help="machine-readable")

    verify = sub.add_parser(
        "verify", help="full checksum walk, timing column included"
    )
    verify.add_argument("path")

    args = parser.parse_args(argv)
    if args.verb == "convert":
        return _convert(args)
    if args.verb == "info":
        return _info(args)
    if args.verb == "verify":
        return _verify(args)
    parser.print_help(sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
