"""One benchmark job, run in a fresh interpreter by ``run.py``.

Usage: ``python3 child.py JOB.json``.  The job file names the kind of
job (``setup``, ``run``, ``replay`` or ``walk``), its arguments, whether
to trace, and where to write the result.  The result holds monotonic
clock readings (``time.perf_counter`` is system-wide on Linux, so the
parent can subtract its spawn time), the job's exit code and, when
traced, the spans.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path


def _walk(steps: int, reflectivity: float):
    # The README's library tour, looked up through the module attributes
    # so that a tracer's wrappers see every call.
    from beamwalk import evolution, measure, schedules, state

    schedule = schedules.ordered_schedule(steps, 0.0)
    trajectory = evolution.evolve(state.initial_state(steps), schedule, reflectivity)
    series = measure.series_from_trajectory(trajectory)
    variances = measure.variance_series(series)
    return trajectory, series, variances


def _write_walk(path: Path, trajectory, series, variances) -> float:
    """Write the step-N distribution and final variance at 12 significant
    digits; return the worst norm drift over the trajectory."""
    import numpy as np

    last = series.rows[-1]
    lines = [f"step {last.step} variance {format(variances[-1], '.12g')}", "site,p"]
    lines += [f"{site},{format(float(p), '.12g')}" for site, p in zip(last.sites, last.probs)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return max(abs(float(np.sum(np.abs(s.amplitudes) ** 2)) - 1.0) for s in trajectory)


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    from beamwalk import cli
    from beamwalk.config import load_config

    if not Path(cli.__file__).resolve().is_relative_to(Path(job["src"]).resolve()):
        raise SystemExit(f"beamwalk imported from {cli.__file__}, not from {job['src']}")

    if "config" in job:
        load_config(job["config"])
    result = {"setup_end": time.perf_counter()}

    if job["trace"]:
        from tracing import Tracer

        context = Tracer()
    else:
        context = contextlib.nullcontext()
    with context as tracer:
        start = time.perf_counter()
        if job["kind"] == "run":
            code = cli.main(["run", job["config"], "--output-dir", job["out"]])
        elif job["kind"] == "replay":
            code = cli.main(["replay", job["manifest"], "--output-dir", job["out"]])
        elif job["kind"] == "walk":
            walk = _walk(job["steps"], job["reflectivity"])
            code = 0
        else:
            code = 0
        end = time.perf_counter()

    result.update(start=start, end=end, exit=code)
    if job["kind"] == "walk":
        Path(job["out"]).mkdir(parents=True, exist_ok=True)
        result["norm_drift"] = _write_walk(Path(job["out"]) / "walk.txt", *walk)
    if tracer is not None:
        result["spans"] = tracer.spans
        result["installed"] = sorted(tracer.installed)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
