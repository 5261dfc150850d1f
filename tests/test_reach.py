"""Smoke test of ``tools/reach.py`` on every 400th call of the stdout corpus."""

import importlib.util
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "reach.py")
PACKAGE = os.path.join(ROOT, "src", "sharelin")


def load_tool():
    spec = importlib.util.spec_from_file_location("reach", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reach_lists_the_unreached_lines_of_each_module():
    done = subprocess.run([sys.executable, TOOL, "--every", "400"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    headers, listings = lines[::2], lines[1::2]
    assert [h.split(":")[0] for h in headers] == sorted(
        n for n in os.listdir(PACKAGE) if n.endswith(".py")
    )
    executable_lines = load_tool().executable_lines
    for header, listing in zip(headers, listings):
        match = re.fullmatch(r"(\S+): (\d+) executable, (\d+) unreached, 0 tests only", header)
        assert match, header
        name, executable, unreached = match[1], int(match[2]), int(match[3])
        assert listing.split()[0] == "unreached:"
        numbers = [int(n) for n in listing.split()[1:]]
        assert len(numbers) == unreached and numbers == sorted(set(numbers))
        lines_of = executable_lines(os.path.join(PACKAGE, name))
        assert len(lines_of) == executable
        assert set(numbers) <= lines_of
        # the corpus runs the CLI, so its entry point is reached
        if name == "cli.py":
            assert 0 < unreached < executable
