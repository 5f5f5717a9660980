#!/usr/bin/env python3
"""List the ``src/`` functions that no end-to-end entry point calls.

Runs every CLI subcommand at a tiny scale, a governed ``ossweep`` at a
scale where the OS governor acts, and every example, each in its own
interpreter under a ``sys.setprofile`` hook.  The hook records each
``src/repro`` code object the first time it is called, in one file per
process, so forked pool workers are covered too (fig5 also runs with
``--workers 2`` and cold and warm through ``--cache-dir``; the cold run
adds ``--report-json``, ``--retries`` and ``--cache-max-entries`` so the
CLI-only report and cache-bound paths count as reached).  With
``--perfbench`` it also runs ``perfbench/run.py --trace 1`` on both
workloads (several minutes under the hook).

It then prints every function or method defined under ``src/repro``
that none of the runs called, with its size in lines and the number of
files in ``benchmarks/``, ``perfbench/``, ``scripts/``, ``examples/``
and ``tests/`` that name it.  A function with no hits outside
``tests/`` is reached by nothing but its own unit tests::

    python3 scripts/reachability.py              # ~5 min on 2 CPUs
    python3 scripts/reachability.py --perfbench  # adds both workloads

Some unreached functions are expected: the reference oracles, fault
injection, governor paths a short run never triggers, and apparatus
that only the benchmarks or claim tests call.  Grep every candidate
before deleting it.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
GREP_DIRS = ("benchmarks", "perfbench", "scripts", "examples", "tests")

#: Tiny-scale options shared by every simulating CLI subcommand.
TINY = ["--scale", "512", "--mixes", "1", "--instructions", "2000", "--warmup-us", "5"]

#: Installs the hook, then runs a module (``-m``) or a script as
#: ``__main__``.  argv: package dir, output dir, ``-m``/``-s``, target,
#: target arguments.
_BOOTSTRAP = r"""
import os, runpy, sys, threading
package, out, mode, target, *argv = sys.argv[1:]
seen = set()
files = {}

def hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if code in seen:
        return
    seen.add(code)
    if code.co_filename.startswith(package):
        pid = os.getpid()  # a forked worker writes its own file
        sink = files.get(pid)
        if sink is None:
            sink = files[pid] = open(os.path.join(out, f"{pid}.txt"), "a")
        sink.write(f"{code.co_filename}\t{code.co_firstlineno}\n")
        sink.flush()

sys.argv = [target, *argv]
threading.setprofile(hook)
sys.setprofile(hook)
if mode == "-m":
    runpy.run_module(target, run_name="__main__", alter_sys=True)
else:
    sys.path[0] = os.path.dirname(os.path.abspath(target))
    runpy.run_path(target, run_name="__main__")
"""


def runs(tmp: pathlib.Path, perfbench: bool) -> list[tuple[str, list[str]]]:
    """(label, ``-m module`` or ``-s script`` followed by its argv)."""
    cli = ["-m", "repro.harness.cli"]
    cache = ["--cache-dir", str(tmp / "cache")]
    out = [
        (name, [*cli, name])
        for name in ("table1", "security", "table4")
    ]
    out += [
        (name, [*cli, name, *TINY])
        for name in ("fig4", "rhli", "table8")
    ]
    out += [
        ("fig5 cold", [
            *cli, "fig5", *TINY, "--workers", "1", *cache, "--retries", "1",
            "--cache-max-entries", "1000", "--report-json", str(tmp / "report.json"),
        ]),
        ("fig5 warm", [*cli, "fig5", *TINY, "--workers", "1", *cache]),
        ("fig5 pool", [*cli, "fig5", *TINY, "--workers", "2", "--progress"]),
        ("chansweep", [*cli, "chansweep", *TINY, "--channel-sweep", "1,2", "--pinned"]),
        ("ossweep", [*cli, "ossweep", *TINY]),
        # The governor needs a long warmup on two channels to act
        # (kill, quota and migrate all fire at this point).
        ("ossweep governed", [
            *cli, "ossweep", "--scale", "512", "--mixes", "1",
            "--instructions", "2000", "--warmup-us", "30", "--channels", "2",
        ]),
        ("trace", [
            *cli, "trace", *TINY, "--trace-out", str(tmp / "trace.json"),
            "--metrics-out", str(tmp / "metrics.csv"), "--metrics-epoch-ns", "1000",
        ]),
    ]
    out += [
        (f"examples/{path.name}", ["-s", str(path)])
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    if perfbench:
        out += [
            (f"perfbench {workload}", [
                "-s", str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                "--seed", "1", "--trace", "1",
            ])
            for workload in ("attack-blockhammer", "fig5-sweep")
        ]
    return out


def reached(tmp: pathlib.Path, perfbench: bool) -> set[tuple[str, int]]:
    """(file, first line) of every src/repro code object any run called."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    hits: set[tuple[str, int]] = set()
    for label, argv in runs(tmp, perfbench):
        out = tmp / re.sub(r"\W+", "_", label)
        out.mkdir()
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", _BOOTSTRAP, str(PACKAGE), str(out), *argv],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True,
        )
        status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
        print(f"# {label}: {status} ({time.monotonic() - start:.0f} s)", file=sys.stderr)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
        for path in out.glob("*.txt"):
            for line in path.read_text().splitlines():
                filename, first = line.split("\t")
                hits.add((filename, int(first)))
    return hits


def defined() -> list[tuple[str, int, str, int]]:
    """(file, first line, qualified name, lines) of every def in src/repro."""
    out = []

    def visit(node, filename, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                out.append((filename, first, name, child.end_lineno - first + 1))
                visit(child, filename, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, filename, prefix + child.name + ".")
            else:
                visit(child, filename, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text()), str(path), "")
    return out


def grep_counts(name: str, corpus: dict[str, list[str]]) -> str:
    pattern = re.compile(rf"\b{re.escape(name)}\b")
    counts = []
    for folder, texts in corpus.items():
        found = sum(1 for text in texts if pattern.search(text))
        if found:
            counts.append(f"{folder}:{found}")
    return " ".join(counts) or "-"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--perfbench", action="store_true",
        help="also run both perfbench workloads with --trace 1",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        hits = reached(pathlib.Path(tmp), args.perfbench)
    this = pathlib.Path(__file__).resolve()
    corpus = {
        folder: [
            path.read_text(errors="replace")
            for path in sorted((ROOT / folder).rglob("*"))
            if path.suffix in (".py", ".sh", ".md") and path.resolve() != this
        ]
        for folder in GREP_DIRS
    }
    functions = defined()
    unreached = [f for f in functions if (f[0], f[1]) not in hits]
    print(f"{len(unreached)} of {len(functions)} src/repro functions never called "
          f"({sum(f[3] for f in unreached)} lines)")
    print(f"{'lines':>5}  {'function':<58} {'location':<38} files naming it")
    for filename, first, name, size in unreached:
        where = f"{pathlib.Path(filename).relative_to(SRC)}:{first}"
        short = name.rsplit(".", 1)[-1]
        print(f"{size:>5}  {name:<58} {where:<38} {grep_counts(short, corpus)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
