"""auratopo benchmark: fresh-process CLI workloads with checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 28 --trace 0

Every timed command is a fresh ``python -m auratopo.cli`` process with
``PYTHONPATH=src``, run one at a time. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the workload once untraced and twice under
``perfbench/tracer.py`` and reports the per-layer metrics. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The full record (environment, generated-document hashes, every
sample and the spans) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from typing import Dict, List

import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
TRACER = os.path.join(HERE, "tracer.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")

# A command that does almost no work: interpreter, imports, argparse, and a
# two-point document.
SETUP_ARGS = ["validate", os.path.join("src", "auratopo", "data", "sierpinski2.json")]
SETUP_PER_PAUSE = 3
COMMAND_TIMEOUT_S = 150.0
RUN_DEADLINE_S = 170.0

# Counters that must fire on a workload, proving its layer's wrappers work.
MUST_FIRE = {
    "laws": ("laws.checks", "laws.space_facts.built", "sequences.limits.calls",
             "sequences.text.calls", "verification.fixture_checks_s", "covering.self_s",
             "genopen.self_s", "kernel.aura_closure_mask.calls", "aura.operator.calls",
             "aura.classify.calls", "connectivity.calls", "constructions.product.calls",
             "constructions.subspace.calls", "documents.parse.calls"),
    "scan": ("search.spaces_scanned", "search.atom.aConnected.evals",
             "search.atom.tauConnected.evals", "search.witnesses_rendered",
             "search.witnesses_printed", "search.render_s", "finite.pointset_text.calls",
             "kernel.hull_masks.calls", "aura.spaces_built", "connectivity.calls"),
    "matrix": ("search.spaces_scanned", "search.product_scan_s", "search.enumerate_s",
               "kernel.hull_masks.calls", "kernel.tau_a_masks.calls",
               "kernel.union_closure.calls", "kernel.aura_closure_mask.calls",
               "kernel.component_count.calls", "kernel.is_transitive.calls",
               "kernel.is_symmetric.calls", "kernel.enumerate_preorders.calls",
               "aura.classify.calls", "aura.separation_axioms.calls",
               "connectivity.calls", "search.witnesses_rendered"),
    "docs": ("documents.parse.calls", "documents.parse_s", "finite.validate_s",
             "documents.serialize_s", "documents.bytes_out", "constructions.product.calls",
             "constructions.subspace.calls", "cli.stdout_bytes", "cli.render_s"),
}

# On matrix a layer is entered only through these atoms, so its calls must
# equal their evaluations; this proves the atom wrappers reach the layer.
LAYER_ATOMS = {
    "connectivity.calls": ("aConnected", "aPathConnected", "aLocallyConnected"),
}


# ---------------------------------------------------------------------------
# child processes

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: List[str], tmpdir: str, timeout: float) -> dict:
    """Run one process to completion; wall time, rusage, exit code, stdout."""
    out_path = os.path.join(tmpdir, "stdout")
    err_path = os.path.join(tmpdir, "stderr")
    env = child_env()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable] + argv, env,
                             file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                           (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            os.kill(pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
        "code": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out.is_set(),
        "stdout": stdout,
        "stderr": stderr[-2000:].decode("utf-8", "replace"),
    }


def cli_argv(args: List[str]) -> List[str]:
    return ["-m", "auratopo.cli"] + args


def traced_argv(args: List[str], trace_path: str) -> List[str]:
    return [TRACER, "--out", trace_path, "--"] + args


# ---------------------------------------------------------------------------
# the run

class Run:
    def __init__(self, workload: workloads.Workload, tmpdir: str, started: float):
        self.workload = workload
        self.tmpdir = tmpdir
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.outputs: Dict[str, bytes] = {}  # stdout sha256 -> bytes, checked at the end
        # command label -> stdout sha256 -> runs that printed it, first seen first
        self.runs: Dict[str, Dict[str, int]] = {}

    def timeout(self) -> float:
        left = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        return max(1.0, min(COMMAND_TIMEOUT_S, left))

    def command(self, cmd: workloads.Command, argv: List[str]) -> dict:
        """Run one command, count it, and keep its stdout for the checks."""
        res = run_child(argv, self.tmpdir, self.timeout())
        self.attempted += 1
        digest = workloads.sha256(res["stdout"])
        res["sha256"] = digest
        bad = None
        if res["timed_out"]:
            bad = "timed out"
        elif res["code"] != 0:
            bad = f"exit code {res['code']}: {res['stderr'].strip()[-300:]}"
        else:
            runs = self.runs.setdefault(cmd.label, {})
            runs[digest] = runs.get(digest, 0) + 1
            self.outputs.setdefault(digest, res["stdout"])
        if bad:
            self.failed += 1
            self.problems.append(f"{cmd.label}: {bad}")
        return res

    def round(self, traced_dir: str = "") -> dict:
        """All commands of the workload once; sums and maxima of the samples."""
        walls, cpus, rss, digests, traces = [], [], [], [], []
        for i, cmd in enumerate(self.workload.commands):
            if traced_dir:
                path = os.path.join(traced_dir, f"{i}-{cmd.label}.json")
                res = self.command(cmd, traced_argv(cmd.args, path))
                traces.append(path)
            else:
                res = self.command(cmd, cli_argv(cmd.args))
            walls.append(res["wall_s"])
            cpus.append(res["cpu_s"])
            rss.append(res["rss_kb"])
            digests.append(res["sha256"])
        return {"wall_s": sum(walls), "cpu_s": sum(cpus), "rss_kb": max(rss),
                "command_wall_s": walls, "stdout_sha256": digests, "traces": traces}

    def check_outputs(self) -> None:
        """Pinned hashes and independent facts, once per distinct output.

        A wrong output counts as failed once for every run that printed it.
        """
        for cmd in self.workload.commands:
            runs = self.runs.get(cmd.label, {})
            for k, (digest, count) in enumerate(runs.items()):
                found = []
                if k:
                    found.append("stdout differs between runs of the same command")
                if cmd.pinned and digest != cmd.pinned:
                    found.append(f"stdout sha256 {digest} is not the pinned {cmd.pinned}")
                try:
                    found += cmd.check(self.outputs[digest])
                except (ValueError, KeyError, UnicodeDecodeError) as e:
                    found.append(f"output could not be read: {e!r}")
                self.problems.extend(f"{cmd.label}: {p} ({count} runs)" for p in found)
                if found:
                    self.failed += count


def warm_up(run: Run) -> None:
    """One untimed cheap run per command, so bytecode caches exist."""
    for cmd in run.workload.commands:
        res = run_child(cli_argv(cmd.warmup), run.tmpdir, run.timeout())
        if res["code"] != 0:
            run.problems.append(f"warm-up of {cmd.label} exited {res['code']}: "
                                f"{res['stderr'].strip()[-300:]}")


def measure_setup(run: Run) -> List[float]:
    samples = []
    for _ in range(SETUP_PER_PAUSE):
        res = run_child(cli_argv(SETUP_ARGS), run.tmpdir, run.timeout())
        if res["code"] != 0:
            run.problems.append(f"set-up command exited {res['code']}")
        samples.append(res["wall_s"])
    return samples


def end_to_end(run: Run, seconds: float) -> dict:
    begin = time.perf_counter()
    pauses = [measure_setup(run)]
    rounds = []
    while True:
        rounds.append(run.round())
        pauses.append(measure_setup(run))
        elapsed = time.perf_counter() - begin
        # Stop at the round boundary nearest to --seconds, so that a run
        # measures about that long whatever the length of one round.
        if elapsed + rounds[-1]["wall_s"] / 2 >= seconds:
            break
    run.check_outputs()
    # The host's speed switches between a fast and a slow mode every few
    # seconds, and one start lasts a tenth of a second. So each set-up sample
    # is the mean of one start from every pause between rounds, which spans
    # the whole run, and setup_s is the median of those samples.
    setup = [statistics.fmean(p[j] for p in pauses) for j in range(SETUP_PER_PAUSE)]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "peak_rss_mb": max(r["rss_kb"] for r in rounds) / 1024.0,
        "pass_ratio": (run.attempted - run.failed) / run.attempted,
        "setup_s": statistics.median(setup),
    }
    return {"metrics": metrics, "rounds": rounds, "setup_starts": pauses}


def layers(run: Run, units: Dict[str, str]) -> dict:
    """One untraced round, then two traced rounds whose counts must agree."""
    plain = run.round()
    traced_rounds, summaries, found = [], [], []
    for k in range(2):
        tdir = os.path.join(run.tmpdir, f"trace{k}")
        os.makedirs(tdir, exist_ok=True)
        rnd = run.round(traced_dir=tdir)
        docs = []
        for path in rnd["traces"]:
            try:
                with open(path, encoding="utf-8") as fh:
                    docs.append(json.load(fh))
            except (OSError, ValueError):
                found.append(f"trace file {os.path.basename(path)} is missing")
        rnd["trace_docs"] = docs
        traced_rounds.append(rnd)
        summaries.append(_sum_traces(docs))
    run.check_outputs()

    name = run.workload.name
    first, second = summaries
    traced = [key for key in units if key != "trace.overhead_s"]
    lacking = [key for key in traced if key not in first or key not in second]
    if lacking:
        found.append(f"traces lack declared metrics: {', '.join(lacking)}")
    found += [f"count {key} differs between traced runs: {first[key]} vs {second[key]}"
              for key in traced if units[key] in ("count", "bytes")
              and first.get(key) != second.get(key)]
    found += [f"wrapper for {key} never fired on {name}"
              for key in MUST_FIRE[name] if not first.get(key)]
    if name == "matrix":
        for key, atoms in LAYER_ATOMS.items():
            evals = sum(first.get(f"search.atom.{atom}.evals", 0) for atom in atoms)
            if first.get(key) != evals:
                found.append(f"{key} is {first.get(key)}, but its atoms ran {evals} times")
    if found:
        run.problems.extend(found)
        run.failed += 1

    metrics = {}
    for key in traced:
        values = [s.get(key, 0) for s in summaries]
        metrics[key] = values[0] if units[key] in ("count", "bytes", "ratio") \
            else statistics.median(values)
    traced_wall = statistics.median(r["wall_s"] for r in traced_rounds)
    metrics["trace.overhead_s"] = traced_wall - plain["wall_s"]
    return {"metrics": metrics, "rounds": [plain] + traced_rounds}


def _sum_traces(docs: List[dict]) -> dict:
    """Per-layer metrics of a workload: its commands' traces added up."""
    total: Dict[str, float] = {}
    for doc in docs:
        for key, value in doc["metrics"].items():
            total[key] = total.get(key, 0) + value
    rendered = total.get("search.witnesses_rendered", 0)
    printed = total.get("search.witnesses_printed", 0)
    # Useful share of rendering; 1 when nothing was rendered, so nothing wasted.
    total["search.render_ratio"] = printed / rendered if rendered else 1.0
    return total


# ---------------------------------------------------------------------------
# environment and bookkeeping

def environment() -> dict:
    sys.path.insert(0, SRC)
    import auratopo.kernel

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": _commit(),
        "backend": auratopo.kernel.BACKEND,
        "platform": platform.platform(),
    }


def _commit() -> str:
    """HEAD of a git checkout, read from files; "unknown" outside git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def declared_units() -> Dict[str, Dict[str, str]]:
    """Metric name -> unit, per kind, in the order BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running child is killed and reaped and
    # the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "auratopo", "cli.py")):
        print("perfbench: run from the repository root; src/auratopo is missing",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    env = environment()
    units = declared_units()["per_layer" if args.trace else "end_to_end"]

    os.makedirs(TMP_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR)
    try:
        workload = workloads.build(args.workload, args.seed, tmpdir)
        run = Run(workload, tmpdir, started)
        warm_up(run)
        if args.trace:
            result = layers(run, units)
        else:
            result = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(TMP_DIR)
        except OSError:
            pass

    undeclared = set(result["metrics"]) ^ set(units)
    if undeclared:
        print(f"perfbench: reported and declared metrics differ: {sorted(undeclared)}",
              file=sys.stderr)
        return 2

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "documents": workload.documents,
        "commands": [c.args for c in workload.commands],
        "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
        "metrics": result["metrics"], "rounds": result["rounds"],
        "setup_starts": result.get("setup_starts", []),
        "elapsed_s": time.perf_counter() - started,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for problem in run.problems:
        print(f"problem: {problem}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    if workload.documents:
        print(f"documents: {json.dumps(workload.documents, sort_keys=True)}")
    print(f"rounds: {len(result['rounds'])}; fail_ratio: {run.failed}/{run.attempted}; "
          f"record: {os.path.relpath(out_path, ROOT)}")
    line = {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": result["metrics"][k], "unit": u}
                    for k, u in units.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
