#!/usr/bin/env python3
"""Benchmark of the psispec command line, end to end and layer by layer.

    python3 psibench/run.py --workload numeric --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload's ``psispec`` invocations run as child
processes, one at a time, in passes until ``--seconds`` of pass time have
been measured; the run reports ``setup_s``, ``wall_s`` and ``peak_rss_mb``.
With ``--trace 1`` half the time goes to such passes and half to the same
invocations run in this process with timing spans around each layer
(spans.py); the run reports the per-layer metrics and the tracing overhead.
Every output is checked against references computed without psispec
(reference.py, workloads.py).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in turn.  See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import shutil
import subprocess
import sys
import tempfile
import time
import tomllib
from importlib.metadata import version
from pathlib import Path
from statistics import median

from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: What the installed ``psispec`` console script runs.
ENTRY = 'import sys; from psispec.cli import main; sys.exit(main(prog_name="psispec"))'
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import psispec.cli; "
    "print(time.perf_counter() - t)"
)
#: ``psispec --version`` children before the first pass, after a warm-up
#: that fills the page cache and writes bytecode.
SETUP_REPEATS = 4
#: A run that has not finished by then stops its child and exits non-zero.
DEADLINE_S = 170


class Runner:
    """Runs psispec, keeps the operation tally and the verified output hashes."""

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.wrong_output = False
        self.verified = {}
        self.reasons = set()
        project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
        self.version = project["version"]
        # The metadata an install would write, which ``--version`` reads.
        dist = work / "site" / f"psispec-{self.version}.dist-info"
        dist.mkdir(parents=True)
        (dist / "METADATA").write_text(
            f"Metadata-Version: 2.1\nName: psispec\nVersion: {self.version}\n"
        )
        path = [str(SRC), str(work / "site")]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.launcher.stdin.write(json.dumps(env) + "\n")

    def child(self, argv: list[str]) -> tuple[float, float, int, bytes]:
        """Wall seconds, peak RSS in MB, exit code and stdout of one child."""
        stdout = self.work / "stdout"
        request = {"argv": [sys.executable, *argv], "cwd": str(self.work), "stdout": str(stdout)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended early")
        reply = json.loads(reply)
        return reply["wall_s"], reply["maxrss_kb"] / 1024.0, reply["code"], stdout.read_bytes()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Stop the launcher; after an error, with any child still running."""
        self.launcher.stdin.close()
        if exc_type is not None:
            self.launcher.terminate()
        self.launcher.wait()
        self.launcher.stdout.close()

    def tally(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if reason not in self.reasons:
                self.reasons.add(reason)
                print(f"{self.workload.name}: failed: {reason}", file=sys.stderr)

    def version_child(self) -> float:
        """Wall time of ``psispec --version``: start-up plus imports."""
        wall, _, code, out = self.child(["-c", ENTRY, "--version"])
        want = f"psispec, version {self.version}\n".encode()
        self.tally(code == 0 and out == want, f"--version gave {code}, {out!r}")
        return wall

    def import_time(self) -> float:
        """Median seconds to import psispec.cli (with numpy and click) in a child."""
        times = []
        for _ in range(SETUP_REPEATS):
            _, _, code, out = self.child(["-c", IMPORT_PROBE])
            if code != 0:
                raise RuntimeError(f"importing psispec.cli failed with exit code {code}")
            times.append(float(out))
        return median(times)

    def verify(self, index: int) -> str | None:
        """Check output ``index``; later passes must repeat the first byte for byte."""
        path = self.workload.outputs[index]
        if not path.is_file():
            return f"{path.name} was not written"
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if index in self.verified:
            if digest != self.verified[index]:
                return f"{path.name} differs from the first pass"
            return None
        try:
            reason = self.workload.check(index, data)
        except (ValueError, KeyError, IndexError) as exc:
            reason = f"{path.name} is malformed: {exc}"
        if reason is None:
            self.verified[index] = digest
        else:
            self.wrong_output = True
        return reason

    def run_pass(self, invoke) -> tuple[list[float], list[float]]:
        """Seconds and peak RSS in MB of each invocation of one pass through
        ``invoke``."""
        walls, peaks = [], []
        for index, args in enumerate(self.workload.invocations()):
            self.workload.outputs[index].unlink(missing_ok=True)
            seconds, rss_mb, error = invoke(args)
            walls.append(seconds)
            peaks.append(rss_mb)
            reason = error or self.verify(index)
            self.tally(reason is None, reason or "")
        return walls, peaks

    def child_invocation(self, args):
        wall, rss_mb, code, _ = self.child(["-c", ENTRY, *args])
        return wall, rss_mb, (f"psispec {args[0]} exited with {code}" if code else None)

    def rounds(self, seconds: float) -> tuple[list[float], list[tuple[list[float], list[float]]]]:
        """Set-up times and child passes, as ``run_pass`` gives them.

        After a warm-up, SETUP_REPEATS ``--version`` children, then whole
        rounds of one ``--version`` child and one pass until ``seconds`` of
        pass time are measured; so set-up is sampled across the whole run.
        """
        self.version_child()
        setup = [self.version_child() for _ in range(SETUP_REPEATS)]
        passes = []
        while not passes or sum(sum(walls) for walls, _ in passes) < seconds:
            setup.append(self.version_child())
            passes.append(self.run_pass(self.child_invocation))
        return setup, passes


def in_process_invocation(cli):
    def invoke(args):
        start = time.perf_counter()
        error = None
        try:
            cli.main.main(args=args, prog_name="psispec", standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (0, None):
                error = f"psispec {args[0]} exited with {exc.code}"
        except Exception as exc:  # the tally records it and the run goes on
            error = f"psispec {args[0]} raised {exc!r}"
        return time.perf_counter() - start, 0.0, error

    return invoke


def traced_passes(runner: Runner, seconds: float) -> tuple[list[float], dict]:
    """In-process passes with every layer wrapped.

    Timed passes run until ``seconds`` of pass time are measured; one more
    pass records the tracemalloc peaks.  Returns the timed passes' seconds
    and the median of each layer metric.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import psispec.cli as cli

    tracer = Tracer()
    tracer.install()
    invoke = in_process_invocation(cli)
    walls, layers = [], []
    try:
        while not walls or sum(walls) < seconds:
            tracer.reset()
            walls.append(sum(runner.run_pass(invoke)[0]))
            layers.append(tracer.metrics())
        tracer.reset()
        tracer.peaks = True
        runner.run_pass(invoke)
        peaks = tracer.metrics()
    finally:
        tracer.uninstall()
    counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in layers + [peaks]]
    if any(c != counts[0] for c in counts):
        print(f"{runner.workload.name}: counts differ between traced passes", file=sys.stderr)
    values = {}
    for key, first in layers[0].items():
        if isinstance(first, int):
            values[key] = first
        elif key.endswith("_peak_mb"):
            values[key] = peaks[key]
        else:
            values[key] = median([m[key] for m in layers])
    return walls, values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    workload = WORKLOADS[name]()
    work = Path(tempfile.mkdtemp(prefix=".psibench-", dir=ROOT))
    try:
        with Runner(workload, work) as runner:
            workload.prepare(seed, work, SRC)
            if trace:
                import_s = runner.import_time()
                setup, untraced = runner.rounds(seconds / 2)
                traced, values = traced_passes(runner, seconds / 2)
                values["cli.import_s"] = import_s
                # every child pays set-up; the in-process invocations do not
                untraced_work = (median([sum(walls) for walls, _ in untraced])
                                 - len(workload.invocations()) * median(setup))
                values["trace.overhead_ratio"] = median(traced) / untraced_work
                samples = [f"child passes: {len(untraced)}, traced passes: {len(traced)}"]
            else:
                setup, done = runner.rounds(seconds)
                values = {
                    "setup_s": median(setup),
                    "wall_s": median([sum(walls) for walls, _ in done]),
                    "peak_rss_mb": median([max(peaks) for _, peaks in done]),
                }
                samples = [
                    f"pass times ({len(done)}): " + " ".join(f"{sum(w):.3f}" for w, _ in done)
                    + f" s; {len(setup)} set-up samples; median per invocation:"
                ] + [
                    f"   {label:34s} {median(w[i] for w, _ in done):.6g} s "
                    f"{median(p[i] for _, p in done):.6g} MB"
                    for i, label in enumerate(workload.labels())
                ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    print(f"== {name} (seed {seed}, trace {int(trace)}): " + "\n".join(samples))
    return {
        "correct": not runner.wrong_output,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def on_deadline(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


def on_terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "psispec" / "cli.py").is_file():
        print(f"error: no psispec source under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, on_deadline)
    # unwind, so the launcher, its child and the scratch directory go too
    signal.signal(signal.SIGTERM, on_terminate)
    blas_threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    print(f"machine: nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {version('numpy')}, scipy {version('scipy')}, "
          f"BLAS threads {blas_threads or 'default (nproc)'}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        signal.alarm(DEADLINE_S)
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        signal.alarm(0)
        print(f"   attempted {result['attempted']}, failed {result['failed']}")
        for key, metric in result["metrics"].items():
            print(f"   {key:34s} {metric['value']:.6g} {metric['unit']}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
