#!/usr/bin/env python3
"""List the raise statements in src/derange that the test suite never reaches.

    python3 tools/raise_reach.py [extra pytest arguments]

Runs the tier-1 suite in this process under a sys.settrace line tracer
that watches only the package's files, then prints each raise statement
(found by parsing the source) none of whose lines ran.  The tests that
run the CLI in a child process, whose lines this process cannot see, and
the timing test, whose bound the tracer's overhead breaks, are left out.
The run takes several minutes, a few times the untraced suite, so it is
not part of tier-1.  The exit status is pytest's when that is nonzero,
else 1 if any raise site is unreached, else 0.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "derange"
LEFT_OUT = [
    "tests/test_cli.py::TestConsoleScripts",
    "tests/test_acceptance.py::test_c10_verify_cli_byte_deterministic",
    "perfbench/tests/test_perfbench.py::test_traced_self_times_sum_to_traced_wall",
]


def raise_sites(path: Path) -> dict[int, int]:
    """Each line of each raise statement in a file, mapped to the
    statement's first line."""
    lines = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise):
            for line in range(node.lineno, node.end_lineno + 1):
                lines[line] = node.lineno
    return lines


def main(args: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    sites = {str(path): raise_sites(path) for path in sorted(PACKAGE.glob("*.py"))}
    reached = set()

    def line_tracer(path, lines):
        def trace(frame, event, arg):
            if event == "line" and frame.f_lineno in lines:
                reached.add((path, lines[frame.f_lineno]))
            return trace
        return trace

    tracers = {path: line_tracer(path, lines) for path, lines in sites.items() if lines}
    by_name = {}

    def calls(frame, event, arg):
        # only frames of the package's files get a line tracer
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = tracers.get(os.path.abspath(name))
        return by_name[name]

    os.chdir(ROOT)
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
            + [f"--deselect={test}" for test in LEFT_OUT] + args
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = sum(len(set(lines.values())) for lines in sites.values())
    missed = [
        (path, line)
        for path, lines in sites.items()
        for line in sorted(set(lines.values()))
        if (path, line) not in reached
    ]
    print(f"\nraise sites reached: {total - len(missed)} of {total}")
    for path, line in missed:
        source = Path(path).read_text().splitlines()[line - 1].strip()
        print(f"unreached: {os.path.relpath(path, ROOT)}:{line}: {source}")
    return int(status) or int(bool(missed))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
