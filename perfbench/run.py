"""exposure-glm benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload compare_book --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
a report with the environment, the input properties, every operation's
figures and the artifact hashes.  See ``perfbench/README.md``.
"""

import argparse
import ctypes
import glob
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120.0
# Seconds one operation takes at seed on a 2-vCPU Intel Xeon virtual
# machine.  A run does ``round(seconds / cost)`` operations (at least one;
# half as many with tracing, where each is repeated traced) rather than
# looping until the clock runs out, so its books, and its attempted and
# failed counts, depend only on the seed and ``--seconds``, and a faster
# program is timed on the same books as a slower one.
OPERATION_S = {"compare_book": 7.5, "balance_levels": 5.5, "p_profile": 4.5}


@dataclass(frozen=True)
class CliWorkload:
    command: str
    book: object
    check: object


CLI_WORKLOADS = {
    "compare_book": CliWorkload("compare", gen.compare_book, checks.check_compare),
    "balance_levels": CliWorkload("balance", gen.balance_book, checks.check_balance),
}
WORKLOADS = (*CLI_WORKLOADS, "p_profile")

LAYER_UNITS = {
    "cli.ingest_s": "s", "cli.parse_s": "s", "cli.rows_per_s": "1/s", "cli.output_s": "s",
    "cli.bytes_read": "bytes", "cli.bytes_written": "bytes",
    "model_core.build_s": "s", "model_core.rank_check_s": "s",
    "model_core.objective_calls": "count", "model_core.objective_s": "s",
    "solver.fit_s": "s", "solver.iterations": "count", "solver.s_per_iter": "s",
    "solver.max_iter_hits": "count",
    "balance.gaps_s": "s", "balance.class_report_s": "s", "balance.class_levels": "count",
    "balance.factor_s": "s",
    "estimators.dominance_s": "s", "estimators.moments_s": "s",
    "estimators.info_factorizations": "count",
    "claim_count.build_s": "s", "claim_count.poisson_s": "s", "claim_count.zip_s": "s",
    **{f"{module}.self_s": "s" for module in tracing.MODULES},
    "trace.wall_s": "s", "trace.import_s": "s", "trace.other_s": "s",
    "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
    "proc.cpu_s": "s", "fail_share": "share",
}


def operation_count(name, seconds, trace):
    cost = OPERATION_S[name] * (2 if trace else 1)
    return max(1, round(seconds / cost))


def _child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["EXPOSURE_GLM_LOG"] = "info"
    return env


def spawn(args, env, stderr_path, timeout=CHILD_TIMEOUT_S):
    """Run a child to completion; return (exit code, wall s, rusage).

    The child is killed after ``timeout`` seconds or if the benchmark is
    interrupted, and always reaped.  Its stdout is discarded and its
    stderr goes to ``stderr_path``.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    ready = []
    try:
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
        finally:
            os.close(pidfd)
    finally:
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage


def measure_setup(src, work):
    """Fresh-interpreter time until ``exposure_glm`` and its CLI are imported."""
    args = ["-c", "import exposure_glm, exposure_glm.cli"]
    env = _child_env(src)
    samples = []
    for _ in range(SETUP_SAMPLES + 1):  # the first fills the bytecode and file caches
        code, wall, _ = spawn(args, env, work / "setup.err")
        if code != 0:
            raise RuntimeError((work / "setup.err").read_text())
        samples.append(wall)
    return samples[1:]


def cli_op(spec, src, csv_path, out_dir, expect, spans_path=None):
    """One command in a fresh interpreter, then its checks."""
    stderr_path = out_dir.with_suffix(".err")
    argv = [spec.command, "--input", str(csv_path), "--out", str(out_dir), "--p", repr(checks.CLI_P)]
    args = [str(HERE / "child.py"), "cli", str(src), str(spans_path or "-"), *argv]
    code, wall, usage = spawn(args, _child_env(src), stderr_path)
    stderr_text = stderr_path.read_text()
    record = {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": code,
    }
    if code != 0:
        problems = [("check", f"exit code {code}: {stderr_text[-500:]}")]
    else:
        try:
            problems = checks.check_fit_log(stderr_text) + spec.check(out_dir, expect)
        except (OSError, ValueError, KeyError) as exc:
            problems = [("check", f"unreadable output: {exc!r}")]
    record["problems"] = problems
    record["attempted"], record["failed"] = 1, int(bool(problems))
    if out_dir.is_dir():
        record["artifacts"] = checks.artifact_digests(out_dir)
        record["bytes_written"] = sum(p.stat().st_size for p in out_dir.iterdir())
        shutil.rmtree(out_dir)
    if spans_path is not None and spans_path.exists():
        traced = json.loads(spans_path.read_text())
        record["import_s"] = traced["import_s"]
        record["summary"] = tracing.summarize(traced["spans"], 0)
        record["spans"] = traced["spans"]
    return record


def run_cli(name, operations, trace, seed, src, work, n=None):
    spec = CLI_WORKLOADS[name]
    sizes = {} if n is None else {"n": n}
    csv_path = work / "book.csv"
    records, traced, inputs = [], [], []
    for k in range(operations):
        book = spec.book(seed, index=k, **sizes)
        properties = book.properties()
        properties["csv_bytes"], properties["sha256"] = gen.write_csv(book, csv_path)
        inputs.append(properties)
        expect = {
            "n": book.n,
            "loss_sum": float(book.losses.sum()),
            "class_rows": sum(properties["levels"].values()),
        }
        records.append(cli_op(spec, src, csv_path, work / f"op{k}", expect))
        if trace:
            record = cli_op(spec, src, csv_path, work / f"traced{k}", expect, work / f"spans{k}.json")
            record["bytes_read"], record["rows"] = properties["csv_bytes"], book.n
            traced.append(record)
    return {
        "inputs": inputs,
        "records": records,
        "traced": traced,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in records),
    }


def run_profile(operations, trace, seed, seconds, src, work, n=None):
    result_path = work / "profile.json"
    args = [str(HERE / "child.py"), "profile", str(src), str(seed), str(operations),
            "1" if trace else "0", "-" if n is None else str(n), str(result_path)]
    code, _, _ = spawn(args, _child_env(src), work / "profile.err", timeout=seconds + CHILD_TIMEOUT_S)
    if code != 0:
        raise RuntimeError(f"p_profile worker exited {code}: {(work / 'profile.err').read_text()[-2000:]}")
    result = json.loads(result_path.read_text())
    spans = result.pop("spans")
    for index, record in enumerate(result["traced"]):
        record["summary"] = tracing.summarize(spans, index)
        record["wall_s"] = record["summary"]["total"]["op"]
    return result


def layer_metrics(records, traced):
    """Per-layer figures: means over the traced operations of a run.

    Means, not medians, so that the module self times, ``trace.import_s``
    and ``trace.other_s`` add up to ``trace.wall_s`` exactly.  A traced
    command killed before it wrote its spans is left out (it still counts
    as failed).
    """
    pairs = [(r, t) for r, t in zip(records, traced) if "summary" in t]
    if not pairs:
        raise RuntimeError("no traced operation wrote its spans")
    traced = [t for _, t in pairs]

    def mean(value):
        return statistics.fmean(value(r) for r in traced)

    def total(name):
        return mean(lambda r: r["summary"]["total"].get(name, 0.0))

    def fits(r):
        return r["summary"]["notes"].get("solver.fit", [])

    ingest = total("cli.ingest")
    fit_s = total("solver.fit")
    iterations = mean(lambda r: sum(note["iterations"] for note in fits(r)))
    self_s = {m: mean(lambda r, m=m: r["summary"]["self"].get(m, 0.0)) for m in tracing.MODULES}
    wall = mean(lambda r: r["wall_s"])
    import_s = mean(lambda r: r.get("import_s", 0.0))
    values = {
        "cli.ingest_s": ingest,
        "cli.parse_s": mean(lambda r: r["summary"]["own"].get("cli.ingest", 0.0)),
        "cli.rows_per_s": mean(lambda r: r.get("rows", 0)) / ingest if ingest else 0.0,
        "cli.output_s": mean(lambda r: r["summary"]["own"].get("cli.command", 0.0)),
        "cli.bytes_read": mean(lambda r: r.get("bytes_read", 0)),
        "cli.bytes_written": mean(lambda r: r.get("bytes_written", 0)),
        "model_core.build_s": total("model_core.build"),
        "model_core.rank_check_s": total("model_core.rank_check"),
        "model_core.objective_calls": mean(lambda r: r["summary"]["count"].get("model_core.objective", 0)),
        "model_core.objective_s": total("model_core.objective"),
        "solver.fit_s": fit_s,
        "solver.iterations": iterations,
        "solver.s_per_iter": fit_s / iterations if iterations else 0.0,
        "solver.max_iter_hits": mean(lambda r: sum(not note["converged"] for note in fits(r))),
        "balance.gaps_s": total("balance.gaps"),
        "balance.class_report_s": total("balance.class_report"),
        "balance.class_levels": mean(lambda r: sum(r["summary"]["notes"].get("balance.class_report", []))),
        "balance.factor_s": total("balance.factor"),
        "estimators.dominance_s": total("estimators.dominance"),
        "estimators.moments_s": total("estimators.moments"),
        "estimators.info_factorizations": mean(lambda r: r["summary"]["count"].get("estimators.covariance", 0)),
        "claim_count.build_s": total("claim_count.build"),
        "claim_count.poisson_s": total("claim_count.poisson"),
        "claim_count.zip_s": total("claim_count.zip"),
        **{f"{m}.self_s": v for m, v in self_s.items()},
        "trace.wall_s": wall,
        "trace.import_s": import_s,
        "trace.other_s": wall - import_s - sum(self_s.values()),
        "trace.untraced_wall_s": statistics.median(r["wall_s"] for r, _ in pairs),
        "trace.overhead_s": statistics.median(t["wall_s"] - r["wall_s"] for r, t in pairs),
        "proc.cpu_s": statistics.median(r["cpu_s"] for r in records),
    }
    return values


def environment(root):
    """Versions, BLAS and machine the result was measured with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            threads = getter()
    head = root / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        ref_path = root / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_path.read_text().strip() if ref_path and ref_path.is_file() else ref
    cpu_model = None
    if Path("/proc/cpuinfo").is_file():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": threads},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def run_workload(name, seed, seconds, trace, root, n=None):
    """Run one workload in a scratch directory under ``root``; return (report, result)."""
    src = root / "src"
    work = root / ".perfbench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup = [] if trace else measure_setup(src, work)
        operations = operation_count(name, seconds, trace)
        if name == "p_profile":
            outcome = run_profile(operations, trace, seed, seconds, src, work, n)
        else:
            outcome = run_cli(name, operations, trace, seed, src, work, n)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    ops = outcome["records"] + outcome["traced"]
    attempted = sum(r["attempted"] for r in ops)
    failed = sum(r["failed"] for r in ops)
    correct = not any(kind == "check" for r in ops for kind, _ in r["problems"])
    if trace:
        values = layer_metrics(outcome["records"], outcome["traced"])
        values["fail_share"] = failed / attempted
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in LAYER_UNITS.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in outcome["records"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": outcome["peak_rss_mb"], "unit": "MB"},
        }
    for record in outcome["traced"]:
        record.pop("summary", None)
        record.pop("spans", None)
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(root),
        "inputs": outcome["inputs"],
        "setup_samples_s": setup,
        "fail_share": failed / attempted,
        "operations": outcome["records"],
        "traced_operations": outcome["traced"],
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return report, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    root = HERE.parent
    if not (root / "src" / "exposure_glm" / "__init__.py").is_file():
        print(f"perfbench: no exposure_glm sources under {root / 'src'}", file=sys.stderr)
        return 2
    report, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
