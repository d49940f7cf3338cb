"""``python -m tools.reach [ENTRY ...]`` — which ``src/repro`` functions entry points reach.

Each ENTRY is one string of ``python`` arguments, for example
``"-m repro fig4a --quick"`` or
``"perfbench/run.py --workload fixed_query --seed 1 --seconds 2"``.
Leading ``NAME=value`` words set environment variables for that entry, and
``{tmp}`` stands for a scratch directory that is deleted afterwards.  With no
ENTRY the default set below runs: every paper figure, the perfbench
workloads, the extension CLI modes, the examples and the quick benchmarks.
It takes about ten minutes on two cores.

Every entry runs from the repository root in a child ``sys.executable``.  A
``sitecustomize.py`` put first on ``PYTHONPATH`` installs a
``sys.setprofile`` / ``threading.setprofile`` hook in that child and in every
Python process it starts, and dumps the code objects they called at exit.

The tool then parses ``src/repro`` with :mod:`ast` and counts the lines of
top-level functions and methods.  Nested functions count with their parent.
A decorated function is reached when a called code object starts on its
``def`` line or on its first decorator line.  It prints:

* a totals line, ``function lines T, unreached U (P%)``;
* a per-module table of unreached and total lines;
* one ``module:line  qualname  lines`` line per unreached function.

The exit status is 1 when an entry failed, since its reach is then
incomplete.
"""

from __future__ import annotations

import ast
import os
import shlex
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple, Union

REPO = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
SRC = os.path.join(REPO, "src")
PACKAGE = os.path.join(SRC, "repro")

FIGURES = (
    "fig4a", "fig4c", "fig5", "fig6a", "fig6b", "fig9a", "fig9b", "fig9c",
    "fig10a", "fig10b", "space",
)
WORKLOADS = ("fixed_query", "random_query", "ensemble", "replication")


def default_entries() -> List[str]:
    """The entry set the ROADMAP's reach numbers are measured with."""
    entries = [f"-m repro {fig} --quick" for fig in FIGURES]
    entries += [
        f"perfbench/run.py --workload {w} --seed 1 --seconds 2 --trace {trace}"
        for w in WORKLOADS
        for trace in (0, 1)
    ]
    entries += [f"-m repro {mode} --quick" for mode in ("chaos", "recovery", "tracedemo")]
    entries += [
        "-m repro govern --quick --report-out {tmp}/govern.json",
        "-m repro shake --seed 7 --permutations 2 --quick --report-out {tmp}/shake.json",
        "-m repro stats fig9c --quick --metrics-out {tmp}/fig9c.json",
        "-m repro stats fig4c --quick --metrics-out {tmp}/fig4c.json",
        "-m repro trace chaos --quick --trace-out {tmp}/chaos-trace.json",
        "-m repro check src",
        "-m repro snapshot {tmp}/reach.ckpt --quick",
        "-m repro restore {tmp}/reach.ckpt",
        "-m repro report --quick -o {tmp}/report.md",
        "-m repro list",
    ]
    examples = os.path.join(REPO, "examples")
    entries += [f"examples/{name}" for name in sorted(os.listdir(examples)) if name.endswith(".py")]
    entries.append("REPRO_QUICK=1 -m pytest -q benchmarks --benchmark-disable")
    return entries


# Imported at start-up by every Python process whose PYTHONPATH holds the
# hook directory.  Keyed by id() because hashing a code object hashes its
# bytecode; the stored value keeps the object alive so no id is reused.
_HOOK = '''\
import atexit
import os
import sys
import threading

_seen = {}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _seen[id(code)] = code


def _dump():
    sys.setprofile(None)
    path = os.path.join(os.environ["REPRO_REACH_OUT"], "%d.txt" % os.getpid())
    with open(path, "a", encoding="utf-8") as fh:
        for code in list(_seen.values()):
            fh.write("%s\\t%d\\n" % (code.co_filename, code.co_firstlineno))


atexit.register(_dump)
sys.setprofile(_profile)
threading.setprofile(_profile)
'''


class Function(NamedTuple):
    module: str  # path relative to src/repro
    line: int  # the def line
    qualname: str
    lines: int
    starts: Tuple[int, ...]  # the def line and the first decorator line


FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _functions_in(body: List[ast.stmt], prefix: str) -> Iterator[Tuple[str, FunctionNode]]:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from _functions_in(node.body, f"{prefix}{node.name}.")


def package_functions() -> List[Function]:
    """Every top-level function and method under ``src/repro``."""
    found = []
    for root, dirs, files in os.walk(PACKAGE):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            module = os.path.relpath(path, PACKAGE).replace(os.sep, "/")
            for qualname, node in _functions_in(tree.body, ""):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                end = node.end_lineno or node.lineno
                found.append(
                    Function(module, node.lineno, qualname, end - node.lineno + 1,
                             (node.lineno, first))
                )
    return found


def run_entries(entries: List[str], scratch: str) -> Tuple[Set[Tuple[str, int]], List[str]]:
    """Run each entry under the hook; return the reached (module, line) keys
    and the entries that exited non-zero."""
    hook_dir = os.path.join(scratch, "hook")
    dump_dir = os.path.join(scratch, "dumps")
    os.makedirs(hook_dir)
    os.makedirs(dump_dir)
    with open(os.path.join(hook_dir, "sitecustomize.py"), "w", encoding="utf-8") as fh:
        fh.write(_HOOK)
    path = [hook_dir, SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    base_env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), REPRO_REACH_OUT=dump_dir)
    failed = []
    for entry in entries:
        words = shlex.split(entry.replace("{tmp}", shlex.quote(scratch)))
        env = dict(base_env)
        while words and "=" in words[0] and not words[0].startswith("-"):
            key, _, value = words.pop(0).partition("=")
            env[key] = value
        log = os.path.join(scratch, "entry.log")
        start = time.perf_counter()
        with open(log, "w", encoding="utf-8") as out:
            code = subprocess.call(
                [sys.executable] + words, cwd=REPO, env=env, stdout=out, stderr=subprocess.STDOUT
            )
        print(f"[{code}] {time.perf_counter() - start:6.1f} s  {entry}", file=sys.stderr)
        if code != 0:
            failed.append(entry)
            with open(log, encoding="utf-8", errors="replace") as fh:
                sys.stderr.write("".join(fh.readlines()[-20:]))
    reached = set()
    for name in os.listdir(dump_dir):
        with open(os.path.join(dump_dir, name), encoding="utf-8") as fh:
            for row in fh:
                filename, _, line = row.rstrip("\n").rpartition("\t")
                filename = os.path.realpath(filename)
                if filename.startswith(PACKAGE + os.sep):
                    module = os.path.relpath(filename, PACKAGE).replace(os.sep, "/")
                    reached.add((module, int(line)))
    return reached, failed


def report(functions: List[Function], reached: Set[Tuple[str, int]]) -> str:
    unreached = [
        f for f in functions if not any((f.module, s) in reached for s in f.starts)
    ]
    total = sum(f.lines for f in functions)
    missed = sum(f.lines for f in unreached)
    per_module: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for f in functions:
        per_module[f.module][1] += f.lines
    for f in unreached:
        per_module[f.module][0] += f.lines
    out = [f"function lines {total}, unreached {missed} ({100.0 * missed / max(total, 1):.1f}%)"]
    out.append("")
    out.append(f"{'module':36s} {'unreached':>9s} {'total':>6s}")
    for module, (miss, lines) in sorted(per_module.items(), key=lambda kv: (-kv[1][0], kv[0])):
        out.append(f"{module:36s} {miss:9d} {lines:6d}")
    out.append("")
    for f in unreached:
        out.append(f"{f.module}:{f.line}  {f.qualname}  {f.lines}")
    return "\n".join(out)


def main(argv: List[str]) -> int:
    entries = argv or default_entries()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        reached, failed = run_entries(entries, scratch)
    print(report(package_functions(), reached))
    for entry in failed:
        print(f"reach: entry failed: {entry}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
