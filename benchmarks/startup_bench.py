"""Cold-start cost of each subcommand, in fresh processes.

Run from the repository root with::

    python3 benchmarks/startup_bench.py [--repeats N] [--src DIR ...]

Every subcommand runs on small inputs (a 2-point document, sizes 0 to 2),
so what is timed is mostly start-up: the interpreter, the imports and
argparse. For each source tree (``--src``, repeatable; default ``src``) and
each command the output JSON gives:

- ``wall_s``: the median wall time of N fresh ``python -m auratopo.cli``
  processes;
- ``importtime_ms``: the median total ``-X importtime`` self time of the
  modules imported after ``site``, that is, by the program;
- ``auratopo_ms``: the part of it spent in ``auratopo`` modules;
- ``modules``: the ``auratopo`` submodules the command loaded, and the
  heavy standard-library modules among them.

With several trees the starts alternate between them, so that a drift of
the host's speed hits each tree alike. Bytecode caching follows the
environment: with ``PYTHONDONTWRITEBYTECODE=1`` and no ``__pycache__``,
every start compiles each module it imports from source.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOC = os.path.join("auratopo", "data", "sierpinski2.json")
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")
COMMANDS = {
    "validate": ["validate", "{doc}"],
    "analyze": ["analyze", "{doc}"],
    "tau-a": ["tau-a", "{doc}"],
    "closure": ["closure", "{doc}", "--set", "a"],
    "components": ["components", "{doc}"],
    "subspace": ["subspace", "{doc}", "--points", "a"],
    "product": ["product", "{doc}", "{doc}"],
    "convergence": ["convergence", "{doc}", "--seq", ";a"],
    "symbolic": ["symbolic", "trivial"],
    "search": ["search", "--size", "2", "--where", "aConnected"],
    "matrix": ["matrix", "--size", "0"],
    "enumerate": ["enumerate", "--size", "2"],
    "verify-paper": ["verify-paper", "--skip-laws"],
}
# Runs one command and prints the modules it added to those of start-up.
LOADED = """
import sys
before = set(sys.modules)
import contextlib, io, json
from auratopo import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _run(src: str, args: list, *flags: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    return subprocess.run([sys.executable, *flags, *args], env=env, capture_output=True,
                          text=True)


def _argv(src: str, name: str) -> list:
    return [a.format(doc=os.path.join(src, DOC)) for a in COMMANDS[name]]


def _cli(src: str, name: str) -> list:
    return ["-m", "auratopo.cli", *_argv(src, name)]


def _importtime(stderr: str) -> tuple:
    """Self milliseconds of the imports after ``site``: all, and auratopo's.

    ``-X importtime`` prints each import after the ones it caused, one line
    ``import time: self | cumulative | name`` each, nested names indented.
    """
    total = ours = 0
    after_site = False
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the header line
        if not after_site:
            after_site = name.rstrip() == " site"
            continue
        total += int(self_us)
        if name.strip().startswith("auratopo"):
            ours += int(self_us)
    return total / 1000.0, ours / 1000.0


def _one_start(src: str, name: str) -> dict:
    argv = _cli(src, name)
    start = time.perf_counter()
    proc = _run(src, argv)
    wall = time.perf_counter() - start
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{name} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    total, ours = _importtime(_run(src, argv, "-X", "importtime").stderr)
    return {"wall_s": wall, "importtime_ms": total, "auratopo_ms": ours}


def _modules(src: str, name: str) -> dict:
    loaded = json.loads(_run(src, ["-c", LOADED, *_argv(src, name)]).stdout)
    return {"auratopo": [m[len("auratopo."):] for m in loaded if m.startswith("auratopo.")],
            "heavy": [m for m in HEAVY if m in loaded]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--src", action="append", default=None,
                        help="source tree to measure (repeatable; default: src)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    trees = [os.path.abspath(s) for s in (args.src or [os.path.join(ROOT, "src")])]
    names = list(COMMANDS)

    samples = {src: {name: [] for name in names} for src in trees}
    for src in trees:
        for name in names:
            _run(src, _cli(src, name))  # untimed: writes bytecode when allowed
    for _ in range(args.repeats):
        for name in names:
            for src in trees:
                samples[src][name].append(_one_start(src, name))

    def median(rows, key):
        return round(statistics.median(r[key] for r in rows), 4)

    print(json.dumps({
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "repeats": args.repeats,
        "bytecode_written": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "trees": {
            src: {
                name: {"wall_s": median(rows, "wall_s"),
                       "importtime_ms": median(rows, "importtime_ms"),
                       "auratopo_ms": median(rows, "auratopo_ms"),
                       "modules": _modules(src, name)}
                for name, rows in samples[src].items()
            }
            for src in trees
        },
    }, indent=1))


if __name__ == "__main__":
    main()
