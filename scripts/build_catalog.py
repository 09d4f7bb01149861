#!/usr/bin/env python3
"""Build every named pair into a catalog directory of canonical JSON
entries (pair + verify report, hash-linked).

Usage: python scripts/build_catalog.py [outdir]
"""

import pathlib
import sys

from isopairs.cli import main as cli_main

# every named pair and the exit code `isopair make` gives it: the
# c-substituted sym2:so3 pair reports a failing verify (acceptance
# criterion 6), every other pair passes
SPECS = {
    "gl:1,0": 0,
    "gl:1,1": 0,
    "gl:2,1": 0,
    "gl:2,2": 0,
    "osp+:1,1": 0,
    "osp-:1,1": 0,
    "osp+:2,2": 0,
    "osp-:2,2": 0,
    "q:1": 0,
    "q:2": 0,
    "osq:1": 0,
    "osq:2": 0,
    "isoq": 0,
    "magnetic:sl2": 0,
    "magnetic:so3": 0,
    "sym2:so3": 1,
    "flip:gl:1,1": 0,
    "wo:1,1": 0,
}


def main():
    """Exit 0 iff every spec's `make` exits with its expected code."""
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "catalog")
    outdir.mkdir(parents=True, exist_ok=True)
    unexpected = []
    for spec, expected in SPECS.items():
        name = spec.replace(":", "_").replace(",", "x").replace("+", "p").replace("-", "m")
        out = outdir / f"{name}.json"
        code = cli_main(["make", spec, "-o", str(out)])
        if code != expected:
            unexpected.append(f"{spec} exited {code}, expected {expected}")
    print(f"catalog written to {outdir}/")
    for line in unexpected:
        print(line, file=sys.stderr)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
