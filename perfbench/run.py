"""End-to-end and per-layer benchmark of the leibalg CLI.

    python3 perfbench/run.py --workload classify-f3 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a leibalg checkout: the library is imported from
./src, never from an installed copy.  With --trace 0 every operation is one
`python -m leibalg ...` command in a fresh interpreter, run in a closed loop
(one child at a time) for --seconds seconds of command time, rounded up to
a whole round of the workload's mix; the end-to-end metrics are printed.
With --trace 1 a fixed number of operations runs in-process through
leibalg.cli.main, once plain and once traced, and the per-layer metrics are
printed.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One timed cold start before every third command, so that setup_s (their
# median) samples the whole run, as the commands do.
SETUP_EVERY = 3
COMMAND_TIMEOUT_S = 60
# Operations per traced run, fixed so that call counts repeat exactly.
TRACE_OPS = {"classify-f3": 4, "isoclinic-f5": 9, "invariants-q24": 2}


def _import_library():
    if not (SRC / "leibalg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no leibalg sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import leibalg

    if Path(leibalg.__file__).resolve().parent != SRC / "leibalg":
        sys.exit(f"perfbench: imported leibalg from {leibalg.__file__}, not from {SRC}")
    return leibalg


def child_env():
    """The caller's environment without LEIBALG_* settings, importing ./src."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LEIBALG_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def write_files(op, directory):
    shutil.rmtree(directory, ignore_errors=True)
    for rel, text in op.files.items():
        path = directory / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


class Spawner:
    """Runs `python -m leibalg ...` commands through spawner.py, one at a time."""

    def __init__(self, env):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, args, cwd):
        """(exit code, stdout, wall seconds, peak RSS in MB) of one fresh command."""
        request = {"argv": [sys.executable, "-m", "leibalg", *args], "cwd": str(cwd),
                   "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("perfbench: the command spawner exited")
        reply = json.loads(line)
        stdout = (cwd / ".stdout").read_text(encoding="utf-8", errors="replace")
        code = os.waitstatus_to_exitcode(reply["status"])
        return code, stdout, reply["seconds"], reply["maxrss_kb"] / 1024.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT_S + 10)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def cold_start(spawner):
    """Wall time of one fresh `leibalg catalog list` command."""
    code, stdout, elapsed, _ = spawner.run(["catalog", "list", "--format", "json"], WORK)
    try:
        ok = code == 0 and json.loads(stdout)["status"] == "ok"
    except (json.JSONDecodeError, KeyError, TypeError):
        ok = False
    if not ok:
        sys.exit(f"perfbench: `leibalg catalog list` failed with exit code {code}")
    return elapsed


def run_untraced(workload, seconds, operation, check, cycle):
    op_dir = WORK / "op"
    times, rss, failures = [], [], []
    digest = hashlib.sha256()
    setup = []
    with Spawner(child_env()) as spawner:
        WORK.mkdir(parents=True, exist_ok=True)
        cold_start(spawner)  # untimed: fills the bytecode cache
        while sum(times) < seconds or len(times) % cycle:
            if len(times) % SETUP_EVERY == 0:
                setup.append(cold_start(spawner))
            op = operation(len(times))
            digest.update(op.digest())
            write_files(op, op_dir)
            code, stdout, elapsed, peak = spawner.run(op.args, op_dir)
            times.append(elapsed)
            rss.append(peak)
            problems = check(workload, op, code, stdout)
            if problems:
                failures.append((op.index, problems))
    correct = len(times) - len(failures)
    metrics = {
        "ops_per_s": (correct / sum(times), "commands/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    extra = {"fail_ratio": (len(failures) / len(times), "failed/attempted"),
             "inputs_sha256": digest.hexdigest()}
    return len(times), failures, metrics, extra


class CommandTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CommandTimeout(f"command exceeded {COMMAND_TIMEOUT_S} s")


def run_in_process(main, op, op_dir):
    """leibalg.cli.main(argv) inside op_dir: (exit code, stdout, seconds)."""
    out = io.StringIO()
    previous = os.getcwd()
    os.chdir(op_dir)
    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(COMMAND_TIMEOUT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = main(list(op.args))
            except CommandTimeout:
                code = None
            elapsed = time.perf_counter() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old_handler)
        os.chdir(previous)
    return code, out.getvalue(), elapsed


def run_traced(workload, operation, check, count, work=WORK):
    """Run the first `count` operations in-process, plain and then traced.

    Returns (attempted, failures, per-layer metrics, extra) like run_untraced,
    plus the tracer for its raw tallies.
    """
    import leibalg.cli
    import tracing

    for key in [k for k in os.environ if k.startswith("LEIBALG_")]:
        del os.environ[key]
    ops = [operation(i) for i in range(count)]
    digest = hashlib.sha256(b"".join(op.digest() for op in ops))
    dirs = []
    for op in ops:
        dirs.append(work / f"op{op.index}")
        write_files(op, dirs[-1])
    failures = {}
    tracer = tracing.Tracer()
    totals = []
    for traced in (False, True):
        results = []
        if traced:
            tracer.install()
        try:
            for op, op_dir in zip(ops, dirs):
                results.append(run_in_process(leibalg.cli.main, op, op_dir))
        finally:
            tracer.uninstall()
        totals.append(sum(r[2] for r in results))
        for op, (code, stdout, _) in zip(ops, results):
            problems = check(workload, op, code, stdout)
            if problems:
                failures.setdefault(op.index, problems)
    env = child_env()
    for _ in ops:
        for layer, seconds in tracing.import_self_s(env).items():
            tracer.import_s[layer] += seconds
    metrics = tracer.metrics(traced_s=totals[1], untraced_s=totals[0])
    extra = {"fail_ratio": (len(failures) / len(ops), "failed/attempted"),
             "inputs_sha256": digest.hexdigest()}
    return len(ops), sorted(failures.items()), metrics, extra, tracer


def environment(leibalg):
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "leibalg").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "backend": getattr(leibalg, "BACKEND", None),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def run_workload(leibalg, workload, seed, seconds, trace):
    import check
    import inputs

    operation = inputs.operations(workload, seed)
    if trace:
        attempted, failures, metrics, extra, _ = run_traced(
            workload, operation, check.check, TRACE_OPS[workload])
    else:
        attempted, failures, metrics, extra = run_untraced(
            workload, seconds, operation, check.check, inputs.CYCLE[workload])
    info = {"workload": workload, "seed": seed, "trace": trace, "attempted": attempted,
            "inputs_sha256": extra["inputs_sha256"], **environment(leibalg)}
    print(json.dumps({"info": info}, sort_keys=True))
    for index, problems in failures[:5]:
        print(f"FAILED op {index}: " + "; ".join(problems[:3]))
    rows = dict(metrics, fail_ratio=extra["fail_ratio"])
    for name, (value, unit) in rows.items():
        print(f"{workload:15s} {name:38s} {value:14.6f} {unit}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="classify-f3, isoclinic-f5, invariants-q24 or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="command time measured per workload (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    leibalg = _import_library()
    import inputs

    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in inputs.WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}")
    try:
        results = [run_workload(leibalg, name, args.seed, args.seconds, args.trace)
                   for name in names]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for result in results:
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
