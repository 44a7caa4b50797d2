"""beamwalk benchmark: end-to-end and per-layer metrics on fixed workloads.

One workload, as the benchmark contract runs it:

    python3 perfbench/run.py --workload binary-ensemble --seed 1 --seconds 36 --trace 0

All workloads, every end-to-end metric by name and unit (``--trace 1``
for the per-layer metrics instead):

    python3 perfbench/run.py --suite

The suite twice on the same code, comparing medians against the bounds:

    python3 perfbench/run.py --steadiness

Load is a closed loop with one client: each job (set-up, then ``run``,
``replay`` or the library chain) runs in a fresh child interpreter, one
child at a time, with BLAS/OpenMP threads set to 1.  Inputs are made from
``--seed``; beamwalk sees only the generated config files.  Every
operation's outputs are checked (see ``check_op``); a failed operation
makes the command exit 1.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import LAYER_METRICS, op_layer_values, summarize_walks, walk_latencies

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
DEFAULT_SEED = 1
SETUP_PROBES = 10
STEADINESS_SEEDS = 3  # seeds per workload in each steadiness pass
CHILD_TIMEOUT_S = 150
NORM_TOLERANCE = 1e-10
REFLECTIVITY = 0.5

CHILD_ENV = {
    **{k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# End-to-end metrics that only the CLI workloads have.  BENCHMARK.json
# lists the metrics that every workload reports; these are printed by the
# suite and kept in each result file, with their bounds here (lower is
# better for all three).
CLI_ONLY_METRICS = {
    "replay_s": ("s", 0.25),
    "replay_peak_rss_mb": ("MB", 0.05),
    "manifest_mb": ("MB", 0.01),
}
# Counts the harness derives from array sizes or the config, not measures.
COMPUTED = ("mesh_points_per_s", "schedules.mesh_points", "state.trajectory_mb",
            "oracle.paths", "evolution.ns_per_mesh_point", "oracle.ns_per_path")


@dataclass(frozen=True)
class Workload:
    name: str
    steps: int
    realizations: int = 1
    kind: str | None = None  # disorder kind; None for the library walk
    outputs: tuple = ()
    reference: dict | None = None

    @property
    def cli(self) -> bool:
        return self.kind is not None

    @property
    def mesh_points(self) -> int:
        """Splitter applications per run, reference run included."""
        walks = self.realizations + (self.reference is not None)
        return walks * self.steps * (self.steps + 1) // 2

    def config(self, seed: int) -> dict:
        return {
            "steps": self.steps,
            "reflectivity": REFLECTIVITY,
            "schedule_mode": {"mode": "disordered", "kind": self.kind, "seed": seed,
                              "realization_count": self.realizations},
            "outputs": list(self.outputs),
        }

    def data_files(self) -> set[str]:
        """Names of the data files one run writes (manifest excluded)."""
        if not self.cli:
            return {"walk.txt"}
        names = set()
        for item in self.outputs:
            if item == "variances":
                names |= {"variances.csv"} | {f"variances_r{j}.csv" for j in range(self.realizations)}
            elif item == "oracle_check":
                names.add("oracle_check.txt")
            elif isinstance(item, dict):
                names.add("similarity.txt")
            else:
                names.add(f"{item}.csv")
        return names


# Why each workload: see README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("ordered-walk", steps=1500),
        Workload("binary-ensemble", steps=100, realizations=50, kind="binary_0_pi",
                 outputs=("distributions", "variances", "layout")),
        Workload("oracle-check", steps=16, realizations=8, kind="uniform_0_2pi",
                 outputs=("distributions", "variances", "oracle_check",
                          {"similarity_vs": "reference.json"}),
                 reference={"steps": 16, "reflectivity": REFLECTIVITY}),
    )
}


class HarnessError(Exception):
    """The benchmark cannot run here (e.g. no beamwalk source tree)."""


# ---------------------------------------------------------------- children

@dataclass
class Child:
    setup_s: float
    job_s: float
    rss_mb: float
    ok: bool
    result: dict
    error: str = ""


def spawn(job: dict, work: Path, tag: str) -> Child:
    """Run one job in a fresh interpreter and wait for it; its peak RSS
    comes from its own rusage."""
    job = {"src": str(ROOT / "src"), "trace": False, **job, "result": str(work / f"{tag}.result.json")}
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    err_path = work / f"{tag}.stderr"
    with open(err_path, "wb") as err:
        spawned = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(job_path)],
                                cwd=work, env=CHILD_ENV, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    result_path = Path(job["result"])
    result = json.loads(result_path.read_text(encoding="utf-8")) if result_path.exists() else {}
    ok = proc.returncode == 0 and result.get("exit") == 0
    error = "" if ok else (f"{tag}: exit {proc.returncode}/{result.get('exit')}: "
                           + err_path.read_text(encoding="utf-8", errors="replace")[-400:])
    return Child(
        setup_s=result.get("setup_end", spawned) - spawned,
        job_s=result.get("end", 0.0) - result.get("start", 0.0),
        rss_mb=usage.ru_maxrss * 1024 / 1e6,
        ok=ok,
        result=result,
        error=error,
    )


# ---------------------------------------------------------------- output gate

def load_golden() -> dict:
    return json.loads((HERE / "golden.json").read_text(encoding="utf-8"))


def read_data_files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())
            if p.is_file() and p.name != "manifest.json"}


def check_op(workload: Workload, seed: int, golden: dict, files: dict[str, bytes],
             replayed: dict[str, bytes] | None = None,
             norm_drift: float | None = None) -> list[str]:
    """Every problem with one operation's outputs; empty when correct.

    Golden sha256 values hold for the default seed, and for every seed on
    workloads whose inputs do not depend on it.  At any seed, replay must
    reproduce the run's data files byte for byte, the oracle check must
    pass, each step's distribution must sum to 1 and the norm must hold
    within 1e-10.
    """
    problems = []
    if set(files) != workload.data_files():
        problems.append(f"data files {sorted(set(files) ^ workload.data_files())} "
                        "missing or unexpected")
    if seed == golden["default_seed"] or not workload.cli:
        for name, digest in golden["sha256"][workload.name].items():
            if name in files and hashlib.sha256(files[name]).hexdigest() != digest:
                problems.append(f"{name}: sha256 differs from the golden value")
    if replayed is not None:
        for name in sorted(set(files) | set(replayed)):
            if files.get(name) != replayed.get(name):
                problems.append(f"{name}: replay output differs from the run's")
    if "oracle_check.txt" in files:
        lines = files["oracle_check.txt"].decode("utf-8").splitlines()
        if not lines or lines[-1] != "status pass":
            problems.append("oracle_check.txt does not end in 'status pass'")
    if "distributions.csv" in files:
        totals: dict[str, float] = {}
        for line in files["distributions.csv"].decode("utf-8").splitlines()[1:]:
            step, _, p = line.split(",")
            totals[step] = totals.get(step, 0.0) + float(p)
        worst = max((abs(t - 1.0) for t in totals.values()), default=float("inf"))
        if worst > NORM_TOLERANCE:
            problems.append(f"distributions.csv: a step sums to 1 +- {worst:.3g}")
    if norm_drift is not None and not norm_drift <= NORM_TOLERANCE:
        problems.append(f"norm drift {norm_drift:.3g} exceeds {NORM_TOLERANCE:g}")
    return problems


# ---------------------------------------------------------------- operations

@dataclass
class Op:
    values: dict[str, float]
    setups: list[float]
    problems: list[str]
    traced: bool
    layers: dict[str, float] = field(default_factory=dict)
    walks: list[float] = field(default_factory=list)
    spans: list[tuple[str, list]] = field(default_factory=list)


def _merge_spans(children: list[Child]) -> tuple[list, set[str]]:
    """Concatenate the spans of an operation's children, shifting parent
    indices so they stay valid in the combined list."""
    spans: list = []
    installed: set[str] = set()
    for child in children:
        offset = len(spans)
        spans += [(n, s, e, p + offset if p >= 0 else -1, c)
                  for n, s, e, p, c in child.result.get("spans", [])]
        installed |= set(child.result.get("installed", []))
    return spans, installed


def run_op(workload: Workload, seed: int, golden: dict, work: Path, index: int,
           traced: bool) -> Op:
    """One operation: the run (or library chain) child, then for CLI
    workloads the replay child; checked, and its files deleted."""
    op_dir = work / f"op{index}"
    run_out, replay_out = op_dir / "run", op_dir / "replay"
    op_dir.mkdir()
    if workload.cli:
        run = spawn({"kind": "run", "config": str(work / "config.json"), "out": str(run_out),
                     "trace": traced}, op_dir, "run")
        children = [("run", run)]
        if run.ok:
            children.append(("replay", spawn(
                {"kind": "replay", "manifest": str(run_out / "manifest.json"),
                 "out": str(replay_out), "trace": traced}, op_dir, "replay")))
    else:
        children = [("walk", spawn({"kind": "walk", "steps": workload.steps, "reflectivity": REFLECTIVITY,
                                    "out": str(run_out), "trace": traced}, op_dir, "walk"))]
    first = children[0][1]
    values = {
        "run_s": first.job_s,
        "peak_rss_mb": first.rss_mb,
        "mesh_points_per_s": workload.mesh_points / first.job_s if first.job_s > 0 else 0.0,
    }
    if len(children) > 1:
        values["replay_s"] = children[1][1].job_s
        values["replay_peak_rss_mb"] = children[1][1].rss_mb
        values["manifest_mb"] = (run_out / "manifest.json").stat().st_size / 1e6

    problems = [child.error for _, child in children if not child.ok]
    if not problems:
        problems = check_op(
            workload, seed, golden, read_data_files(run_out),
            read_data_files(replay_out) if workload.cli else None,
            first.result.get("norm_drift"),
        )
    op = Op(values, [child.setup_s for _, child in children], problems, traced)
    if traced and not problems:
        spans, installed = _merge_spans([child for _, child in children])
        op.layers = op_layer_values(spans, installed)
        written = [p for d in (run_out, replay_out) if workload.cli
                   for p in d.iterdir() if p.is_file()]
        op.layers["runner.files_written"] = len(written)
        op.layers["runner.bytes_written"] = sum(p.stat().st_size for p in written)
        op.walks = walk_latencies(spans) if "evolution.evolve" in installed else []
        op.spans = [(tag, child.result.get("spans", [])) for tag, child in children]
    shutil.rmtree(op_dir)
    return op


# ---------------------------------------------------------------- one workload

@dataclass
class Report:
    workload: str
    seed: int
    trace: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    problems: list[str]
    record: dict


def _median(ops: list[Op], key: str, source: str = "values") -> float:
    return statistics.median(getattr(op, source)[key] for op in ops)


def end_to_end_metrics(workload: Workload, ops: list[Op], setups: list[float],
                       attempted: int) -> dict[str, tuple[float, str]]:
    metrics = {"setup_s": (statistics.median(setups), "s")}
    names = [("run_s", "s"), ("peak_rss_mb", "MB"), ("mesh_points_per_s", "1/s")]
    if workload.cli:
        names += [(name, unit) for name, (unit, _) in CLI_ONLY_METRICS.items()]
    metrics.update({name: (_median(ops, name), unit) for name, unit in names})
    metrics["failed_ops_ratio"] = ((attempted - len(ops)) / attempted, "ratio")
    return metrics


def layer_metrics(traced: list[Op], plain: list[Op]) -> dict[str, tuple[float, str]]:
    metrics = {name: (_median(traced, name, "layers"), LAYER_METRICS[name][0])
               for name in LAYER_METRICS if name in traced[0].layers}
    walks = [w for op in traced for w in op.walks]
    if walks:
        metrics.update({name: (value, LAYER_METRICS[name][0])
                        for name, value in summarize_walks(walks).items()})
    metrics["trace.overhead_s"] = (_median(traced, "run_s") - _median(plain, "run_s"), "s")
    return {name: metrics[name] for name in LAYER_METRICS if name in metrics}


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> Report:
    """Run ``workload`` for ``seconds`` and collect its metrics.

    Untraced, the metrics are the end-to-end ones: medians over operations,
    and for ``setup_s`` over the set-up probes and the run (or walk)
    children.
    Traced, operations alternate untraced and traced; the metrics are the
    per-layer medians over traced operations plus ``trace.overhead_s``,
    the traced minus the untraced median ``run_s``.
    """
    if not (ROOT / "src" / "beamwalk" / "__init__.py").is_file():
        raise HarnessError(f"no beamwalk source under {ROOT / 'src'}")
    golden = load_golden()
    work = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        probe = {"kind": "setup"}
        if workload.cli:
            (work / "config.json").write_text(json.dumps(workload.config(seed)), encoding="utf-8")
            if workload.reference is not None:
                (work / "reference.json").write_text(json.dumps(workload.reference),
                                                     encoding="utf-8")
            probe["config"] = str(work / "config.json")
        probes = [spawn(probe, work, f"probe{i}") for i in range(SETUP_PROBES)]

        ops: list[Op] = []
        deadline = time.perf_counter() + seconds
        while len(ops) < (2 if trace else 1) or time.perf_counter() < deadline:
            ops.append(run_op(workload, seed, golden, work, len(ops),
                              traced=trace and len(ops) % 2 == 1))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [p.error for p in probes if not p.ok] + [p for op in ops for p in op.problems]
    good = [op for op in ops if not op.problems]
    plain = [op for op in good if not op.traced]
    traced = [op for op in good if op.traced]
    # Probes and run (or walk) children do the same set-up: import beamwalk
    # and read the config.  Replay children read no config before their
    # job, so their set-up times are kept in the record only.
    setups = [p.setup_s for p in probes] + [op.setups[0] for op in ops]
    metrics = {}
    if trace and traced and plain:
        metrics = layer_metrics(traced, plain)
    elif not trace and plain:
        metrics = end_to_end_metrics(workload, plain, setups, len(ops))

    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(),
        "computed": [name for name in COMPUTED if name in metrics],
        "setup_s_samples": setups,
        "replay_setup_s_samples": [s for op in ops for s in op.setups[1:]],
        "ops": [{"traced": op.traced, "values": op.values, "layers": op.layers,
                 "problems": op.problems} for op in ops],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    if trace:
        record["span_fields"] = ["name", "start", "end", "parent", "counts"]
        record["spans"] = [{"op": i, "job": tag, "spans": spans}
                           for i, op in enumerate(ops) for tag, spans in op.spans]
    return Report(workload.name, seed, trace, len(ops), len(ops) - len(good), metrics,
                  problems, record)


def save(report: Report) -> Path:
    path = WORK / f"{report.workload}-seed{report.seed}-trace{int(report.trace)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report.record), encoding="utf-8")
    return path


# ---------------------------------------------------------------- environment

def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"l{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    caches = _cache_sizes()
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_cache": caches.get("l2", "unknown"),
        "l3_cache": caches.get("l3", "unknown"),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": _commit(),
    }


# ---------------------------------------------------------------- commands

def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bounds() -> dict[str, float]:
    spec = benchmark_spec()
    found = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    found.update({name: bound for name, (_, bound) in CLI_ONLY_METRICS.items()})
    return found


def result_line(report: Report, names: list[str]) -> str:
    return json.dumps({
        "correct": report.failed == 0 and not report.problems,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": report.metrics[name][0], "unit": report.metrics[name][1]}
                    for name in names if name in report.metrics},
    })


def print_table(reports: list[Report]) -> None:
    for report in reports:
        print(f"{report.workload} (seed {report.seed}, {report.attempted} ops, "
              f"{report.failed} failed)")
        for name, (value, unit) in report.metrics.items():
            note = "  (computed)" if name in COMPUTED else ""
            print(f"  {name:32s} {value:>16.6g} {unit}{note}")
        for problem in report.problems:
            print(f"  FAILED: {problem}")


def run_workload(args) -> int:
    spec = benchmark_spec()
    key = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[key]]
    report = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print_table([report])
    print(json.dumps({"environment": report.record["environment"],
                      "result_file": str(save(report).relative_to(ROOT))}))
    print(result_line(report, names))
    return 0 if report.failed == 0 and not report.problems else 1


def run_suite(args) -> int:
    reports = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in WORKLOADS.values()]
    for report in reports:
        save(report)
    print(json.dumps({"environment": reports[0].record["environment"]}))
    print_table(reports)
    return 0 if all(r.failed == 0 and not r.problems for r in reports) else 1


def run_steadiness(args) -> int:
    """The suite twice on the same code; for each end-to-end metric and
    workload, do the two medians (over ``STEADINESS_SEEDS`` seeds) agree within
    the benchmark's bound?"""
    limit = bounds()
    passes = []
    for _ in range(2):
        values: dict[tuple[str, str], list[float]] = {}
        for workload in WORKLOADS.values():
            for r in range(STEADINESS_SEEDS):
                report = measure(workload, args.seed + r, args.seconds, False)
                if report.failed or report.problems:
                    print_table([report])
                    return 1
                for name, (value, _) in report.metrics.items():
                    if name in limit:
                        values.setdefault((workload.name, name), []).append(value)
        passes.append(values)
    steady = True
    print(f"{'workload':16s} {'metric':20s} {'median 1':>12s} {'median 2':>12s} "
          f"{'change':>8s} {'bound':>6s}  agree")
    for key in passes[0]:
        first, second = statistics.median(passes[0][key]), statistics.median(passes[1][key])
        change = (second - first) / first
        agree = abs(change) <= limit[key[1]]
        steady &= agree
        print(f"{key[0]:16s} {key[1]:20s} {first:12.6g} {second:12.6g} "
              f"{change:+8.2%} {limit[key[1]]:6.2f}  {'yes' if agree else 'NO'}")
    return 0 if steady else 1


def _seed(text: str) -> int:
    seed = int(text)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--suite", action="store_true", help="run every workload once")
    mode.add_argument("--steadiness", action="store_true",
                      help="run the suite twice and compare medians against the bounds")
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                        help="disorder seed of the generated configs, 0 <= seed < 2**64")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = benchmark_spec()["run_seconds"]
        if args.workload:
            return run_workload(args)
        if args.suite:
            return run_suite(args)
        return run_steadiness(args)
    except (HarnessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    # A terminated harness still kills and reaps its child and deletes its
    # work files (see spawn and measure).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
