"""Benchmark of doublespend, end to end and layer by layer.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

Runs whole rounds of one workload against the checkout's own src/ (never
an installed copy) for --seconds, checks every output against
references.json or a property the method must have, and prints one JSON
object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced rounds and reports per-layer metrics (per round) from spans
recorded around the package's functions, plus the tracing overhead.
See README.md for the workloads, metrics and known faults.

The gated times are CPU seconds of this process at a reference machine
speed: the machine this was built on is shared, and the same code ran up
to 3.5x slower there from one period to the next. So the library calls of
each round are interleaved with fixed slices of calibration work
(calibrate.py), and a round's CPU time is divided by the mean slice of the
same round, times the slice's time on the reference machine. Set-up time
is scaled by the CPU time of fresh interpreters that import numpy, timed
right after it. Raw times are on the `# figures` line.
"""
import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CLI_MAIN = "import sys; from doublespend.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 120
CALIBRATE_EVERY_S = 0.05   # CPU seconds of library calls between calibration slices
MODULES = ["__init__", "cli", "economics", "errors", "reporting", "simulate",
           "specfun", "timing", "walk"]
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import numpy; "
                "t1 = time.perf_counter(); import doublespend.cli; "
                "print(t1 - t0, time.perf_counter() - t0)")


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_package():
    """Import doublespend from ROOT/src and nowhere else."""
    if not (SRC / "doublespend" / "__init__.py").is_file():
        die(f"{SRC / 'doublespend'} is missing: run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import doublespend
    where = Path(doublespend.__file__).resolve()
    if SRC.resolve() not in where.parents:
        die(f"refusing the installed doublespend at {where}; "
            f"the benchmark measures {SRC} only")
    return doublespend


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def run_cli(ds_cli, argv: list[str]) -> tuple[int, str, str, float]:
    """One CLI run: a subprocess like the installed script, or in-process
    (traced runs) when ds_cli is the imported cli module."""
    argv = [*argv, "--format", "json"]
    start = time.perf_counter()
    if ds_cli is None:
        try:
            proc = subprocess.run([sys.executable, "-c", CLI_MAIN, *argv], cwd=ROOT,
                                  env=child_env(), capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:   # the child is killed and reaped
            return -1, "", f"no answer within {CLI_TIMEOUT_S} s", time.perf_counter() - start
        return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ds_cli.run(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


class Runner:
    def __init__(self, workload, ds_cli, tracer):
        self.wl = workload
        self.ds_cli = ds_cli
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.lib_s: list[float] = []
        self.lib_cpu_s: list[float] = []
        self.lib_ref_s: list[float] = []   # CPU seconds at the reference speed
        self.cli_s: list[float] = []
        self.part_time: dict[str, float] = {}
        self.part_work: dict[str, int] = {}
        self.round_s = {False: [], True: []}
        self.layers: list[dict[str, float]] = []

    def round(self, round_no: int, traced: bool) -> None:
        ops = self.wl.lib_ops(round_no)
        cli_ops = self.wl.cli_ops(round_no)
        results, spent, cli_out = {}, {}, []
        if traced:
            self.tracer.reset()
            self.tracer.install()
        cpu_start = time.process_time()
        slices, lib_cpu_s, since = [calibrate.slice_s()], 0.0, 0.0
        try:
            for op in ops:
                t, cpu = time.perf_counter(), time.process_time()
                try:
                    results[op.key] = op.run()
                except Exception as exc:  # a raising operation is a failed one
                    results[op.key] = exc
                spent[op.key] = time.perf_counter() - t
                cpu = time.process_time() - cpu
                lib_cpu_s += cpu
                since += cpu
                if since >= CALIBRATE_EVERY_S:
                    slices.append(calibrate.slice_s())
                    since = 0.0
            for op in cli_ops:
                cli_out.append(run_cli(self.ds_cli, op.argv))
        finally:
            if traced:
                self.tracer.uninstall()
        self.round_s[traced].append(time.process_time() - cpu_start - sum(slices))
        if traced:
            self.layers.append(self.snapshot())
        else:
            self.lib_s.append(sum(spent.values()))
            self.lib_cpu_s.append(lib_cpu_s)
            self.lib_ref_s.append(lib_cpu_s / statistics.fmean(slices) * calibrate.SLICE_REF_S)
            self.cli_s.extend(wall for *_, wall in cli_out)
            for op in ops:
                self.part_time[op.part] = self.part_time.get(op.part, 0.0) + spent[op.key]
                self.part_work[op.part] = self.part_work.get(op.part, 0) + op.work

        self.attempted += len(ops) + len(cli_ops)
        for op in ops:
            value = results[op.key]
            if isinstance(value, Exception):
                msg = f"raised {type(value).__name__}: {value}"
            else:
                try:
                    msg = op.check(value)
                except Exception as exc:
                    msg = f"output not checkable ({type(exc).__name__}: {exc})"
            if msg and op.key in self.wl.known_faults:
                self.failed += 1
            elif msg:
                self.problems.append(f"{op.key}: {msg}")
        for op, (code, out, err, _) in zip(cli_ops, cli_out):
            try:
                if code != 0:
                    raise ValueError(f"exit code {code}: {err.strip()[-300:]}")
                msg = op.check(workloads.strict_json(out))
            except (ValueError, KeyError, TypeError) as exc:
                msg = str(exc)
            if msg:
                self.problems.append(f"cli {op.key}: {msg}")
        try:
            self.problems.extend(self.wl.round_checks(results))
        except Exception as exc:  # a malformed result: report it and keep measuring
            self.problems.append(f"round check not possible: {exc!r}")

    def snapshot(self) -> dict[str, float]:
        t = self.tracer
        calls, self_s = t.calls, t.self_s
        trials = calls["simulate.trial"]
        return {
            "specfun.gamma_p.calls": calls["specfun.gamma_p"],
            "specfun.gamma_p.self_s": self_s["specfun.gamma_p"],
            "specfun.pfq.calls": calls["specfun.pfq"],
            "specfun.pfq.self_s": self_s["specfun.pfq"],
            "walk.p_dsa.calls": calls["walk.p_dsa"],
            "walk.p_dsa.self_s": self_s["walk.p_dsa"],
            "timing.mixture.calls": calls["timing.mixture"],
            "timing.mixture.self_s": self_s["timing.mixture"],
            "timing.mixture.calls_per_spec":
                calls["timing.mixture"] / len(t.mixture_specs) if t.mixture_specs else 0.0,
            "timing.states": calls["timing.states"],
            "timing.density.calls": calls["timing.density"],
            "timing.density.self_s": self_s["timing.density"],
            "economics.calls": calls["economics"],
            "economics.self_s": self_s["economics"],
            "reporting.build.self_s": self_s["reporting.build"],
            "reporting.render.calls": calls["reporting.render"],
            "reporting.render.self_s": self_s["reporting.render"],
            "simulate.trials": trials,
            "simulate.trial.self_us": 1e6 * self_s["simulate.trial"] / trials if trials else 0.0,
            "simulate.aggregate.self_s": self_s["simulate.aggregate"],
            "cli.run.self_s": self_s["cli.run"],
        }


def import_times() -> tuple[float, float]:
    """(numpy, doublespend.cli including numpy) import seconds in a fresh
    interpreter, median of three."""
    samples = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S, check=True)
        samples.append(tuple(float(v) for v in proc.stdout.split()))
    return (statistics.median(s[0] for s in samples),
            statistics.median(s[1] for s in samples))


def source_lines() -> dict[str, float]:
    out = {}
    for module in MODULES:
        path = SRC / "doublespend" / f"{module}.py"
        out[f"lines.{module}"] = len(path.read_text().splitlines()) if path.is_file() else 0
    out["lines.total"] = sum(out.values())
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ds = import_package()
    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    refs = json.loads((BENCH_DIR / "references.json").read_text())
    ds_cli = tracer = None
    if args.trace:
        import doublespend.cli as ds_cli
        try:
            tracer = Tracer()
        except LookupError as exc:
            die(str(exc))
    workload = workloads.WORKLOADS[args.workload](ds, refs, args.seed)
    setup_cpu_s = time.process_time()   # since the process started
    setup_s = setup_cpu_s / calibrate.cold_start_s() * calibrate.COLD_START_REF_S
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    numpy = sys.modules.get("numpy")
    print(f"# machine nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={getattr(numpy, '__version__', 'absent')} commit={commit()} "
          f"workload={args.workload} seed={args.seed} trace={args.trace}")

    runner = Runner(workload, ds_cli, tracer)
    deadline = time.perf_counter() + args.seconds
    round_no = 0
    while True:
        traced = bool(args.trace) and round_no % 2 == 1
        runner.round(round_no, traced)
        round_no += 1
        if time.perf_counter() >= deadline and (not args.trace or round_no % 2 == 0):
            break
    try:
        runner.problems.extend(workload.finish())
    except Exception as exc:  # a malformed result: report it, the run still ends
        runner.problems.append(f"final checks not possible: {exc!r}")

    if not args.trace:   # traced runs call the CLI in-process
        figures = workload.figures(runner.part_time, runner.part_work)
        figures["lib_round_s"] = (statistics.median(runner.lib_s), "s")
        figures["lib_round_cpu_s"] = (statistics.median(runner.lib_cpu_s), "s")
        figures["setup_cpu_s"] = (setup_cpu_s, "s")
        if runner.cli_s:
            figures["cli_command_s"] = (statistics.median(runner.cli_s), "s")
        print("# figures " + json.dumps({k: {"value": v, "unit": u}
                                         for k, (v, u) in figures.items()}))
    print(f"# rounds {round_no}, known-fault failures per round "
          f"{runner.failed // round_no}, problems {len(runner.problems)}")
    for problem in runner.problems[:20]:
        print(f"# problem: {problem}", file=sys.stderr)

    if args.trace:
        per_round = {name: statistics.median(layer[name] for layer in runner.layers)
                     for name in runner.layers[0]}
        per_round["cli.numpy_import_s"], per_round["cli.import_s"] = import_times()
        per_round["trace.overhead_ratio"] = (statistics.median(runner.round_s[True])
                                             / statistics.median(runner.round_s[False]))
        per_round.update(source_lines())
        wanted = bench["per_layer"]
    else:
        per_round = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "lib_round_ref_s": statistics.median(runner.lib_ref_s),
        }
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": per_round[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not runner.problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
