#!/usr/bin/env python3
"""Lists the library functions that no program links.

Usage:
  tools/dead_code.py BUILD_DIR E2E_BINARY

BUILD_DIR holds libgs.a and the bench and example executables; E2E_BINARY is
bench/e2e's driver.  Build both with

  -DCMAKE_BUILD_TYPE=Debug -DGS_BUILD_TESTS=OFF
  -DCMAKE_CXX_FLAGS="-O0 -fno-inline -ffunction-sections"
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections

(bench/e2e takes the same flags but no GS_BUILD_TESTS): -O0 -fno-inline keeps
every function a symbol of its own, and --gc-sections drops each function an
executable cannot reach, so an executable's symbol table lists exactly the
library code it runs.  Executables named *_test are skipped, so a build that
includes the tests gives the same answer.

Prints every gs:: text symbol of libgs.a that neither an executable in
BUILD_DIR nor E2E_BINARY links, and exits 1 when one of them is not in
ALLOWED.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

# Accessors the tests use to watch state the engine keeps.
ALLOWED = {
    "gs::sim::BatchTicker::group_live",
    "gs::sim::BatchTicker::member_count",
    "gs::sim::BatchTicker::group_count",
    "gs::stream::TransferPlane::uplink_busy_until",
    "gs::stream::CdnAssistPlane::state",
    "gs::stream::CdnAssistPlane::paused",
    "gs::stream::SwitchMetrics::completion_fraction",
    "gs::util::Rng::exponential",
    "gs::exp::settings",
    "gs::stream::Engine::graph",
    "gs::stream::Engine::sessions",
    "gs::stream::Engine::timeline",
    "gs::stream::Engine::transfers",
}

TEXT_TYPES = {"T", "t", "W"}
PREFIXES = ("_ZN2gs", "_ZNK2gs")


def gs_text_symbols(path: Path) -> set[str]:
    out = subprocess.run(["nm", "--defined-only", str(path)], check=True,
                         capture_output=True, text=True).stdout
    symbols = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] in TEXT_TYPES and fields[2].startswith(PREFIXES):
            symbols.add(fields[2])
    return symbols


def is_executable(path: Path) -> bool:
    if not path.is_file() or not path.stat().st_mode & 0o111:
        return False
    with path.open("rb") as f:
        return f.read(4) == b"\x7fELF"


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    build_dir, e2e = Path(argv[1]), Path(argv[2])
    library = build_dir / "libgs.a"
    for path in (library, e2e):
        if not path.is_file():
            print(f"dead_code.py: {path} not found", file=sys.stderr)
            return 2
    programs = [p for p in sorted(build_dir.iterdir())
                if is_executable(p) and not p.name.endswith("_test")]
    programs.append(e2e)

    linked: set[str] = set()
    for program in programs:
        linked |= gs_text_symbols(program)
    unlinked = gs_text_symbols(library) - linked
    # Constructor and destructor variants (C1/C2, D1/D2) demangle alike.
    names = sorted(set(subprocess.run(["c++filt"], input="\n".join(unlinked), check=True,
                                      capture_output=True, text=True).stdout.split("\n")) - {""})
    unexpected = [n for n in names if n.split("(")[0] not in ALLOWED]

    print(f"{len(programs)} programs; {len(names)} libgs functions linked by none, "
          f"{len(names) - len(unexpected)} of them allowlisted")
    for name in unexpected:
        print(f"  unlinked: {name}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
