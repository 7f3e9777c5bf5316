"""Calibration-job benchmark for skelfit.

One job is what a user runs to calibrate a capture: two fresh CLI
processes, `build-skeleton` (fit) and then `reconstruct` (replay).  Jobs
run back to back, one at a time (a closed loop with one client), for
--seconds; each job's outputs are checked against the synthetic truth,
untimed, after it ends.

    python3 perfbench/run.py --workload wide128 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --workload all --trace 1  # per-layer table
    python3 perfbench/run.py --workload long16 --held-out
    python3 perfbench/run.py --self-test

Timings are scaled to a reference host speed: a fixed slice of work (one
SVD) is timed just before and after each timed step, and the step's wall time
is multiplied by REF_SLICE_S over the slice's mean time around it.  On a
shared core this cancels most of a neighbour's slowdown, which moves raw
wall time by up to 60%; the raw wall medians are printed as well.

With --trace 0 the last line of output is one JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced run (perfbench/trace_job.py).  Everything the benchmark
writes goes under .perfbench_work/ and is removed when it ends.
"""
from __future__ import annotations

import os
import sys

BLAS_THREADS = 1  # at most nproc; one thread gave the steadiest timings
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

HELD_OUT_SEED = 20231  # keep out of tuning; confirm claims on it
SETUP_REPEATS = 5
PROBE_WINDOW_S = 0.4  # host speed is sampled this long before and after each timed step
REF_SLICE_S = 120e-6  # about one slice on a quiet core of the reference host (README)
STEP_LIMIT_S = 60.0  # a step still running then is killed and fails its job

END_TO_END_UNITS = {"fit_s": "s", "replay_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "capture.load_session.s": "s",
    "capture.load_session.bytes": "bytes",
    "capture.validate.s": "s",
    "capture.write_session.s": "s",
    "capture.write_session.bytes": "bytes",
    "hierarchy.s": "s",
    "hierarchy.build_fit_matrix.pairs": "count",
    "hierarchy.fit_matrix.retained_bytes": "bytes",
    "hierarchy.tree_pair_ratio": "ratio",
    "solver.s": "s",
    "solver.solve_joint.s_per_pair": "s",
    "solver.pair_solves": "count",
    "solver.assembled_bytes": "bytes",
    "solver.class_errors": "count",
    "skeleton.fit_skeleton.s": "s",
    "skeleton.fit_skeleton.resolved_pairs": "count",
    "skeleton.reconstruct.s": "s",
    "skeleton.joint_gaps.s": "s",
    "skeleton.joint_err_max_m": "m",
    "cli.import_s": "s",
    "cli.fit.other_s": "s",
    "cli.replay.other_s": "s",
    "setup.generate.s": "s",
    "setup.write_session.s": "s",
    "trace.overhead_s": "s",
}

if not (SRC / "skelfit" / "cli.py").is_file():
    sys.exit(f"error: {SRC / 'skelfit'} not found; run from a skelfit checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from check import (  # noqa: E402
    accuracy,
    accuracy_problems,
    replay_problems,
    self_test,
)
from skelfit.errors import SkelfitError  # noqa: E402
from skelfit.skeleton import load_skeleton  # noqa: E402
from workloads import WORKLOADS, set_up  # noqa: E402


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


@dataclass(frozen=True)
class Step:
    code: int
    wall_s: float
    rss_mib: float


_SLICE_MATRIX = np.random.default_rng(0).normal(size=(1500, 7))


def _slice():
    """A fixed amount of work: the SVD of one 3n x 7 pair system at n = 500."""
    np.linalg.svd(_SLICE_MATRIX, full_matrices=False)


def host_slice_s() -> float:
    """The mean time of one slice over PROBE_WINDOW_S: the host's speed now."""
    count = 0
    t0 = time.perf_counter()
    while (elapsed := time.perf_counter() - t0) < PROBE_WINDOW_S:
        _slice()
        count += 1
    return elapsed / count


def at_ref_speed(wall_s: float, before: float, after: float) -> float:
    """wall_s scaled to the reference speed, by the slices around it."""
    return wall_s * REF_SLICE_S * 2 / (before + after)


def run_step(argv: list, log: Path, stdout: Path | None = None) -> Step:
    """Run one process; wall time and its own peak RSS, via wait4."""
    with open(log, "wb") as err, open(stdout or os.devnull, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(STEP_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    # wait4 reaped the child; tell Popen so it never waits on it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Step(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def cli(*args) -> list:
    return [sys.executable, "-m", "skelfit.cli", *map(str, args)]


@dataclass
class Job:
    fit: Step
    replay: Step | None
    slices: list  # host_slice_s() before the fit, between the steps, after the replay
    problems: list
    acc: object = None
    hashes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def fit_s(self) -> float:
        return at_ref_speed(self.fit.wall_s, *self.slices[:2])

    @property
    def replay_s(self) -> float:
        return at_ref_speed(self.replay.wall_s, *self.slices[1:])


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def job_argv(workload, inputs, outdir: Path):
    skel, out = outdir / "skel.json", outdir / "out.csv"
    fit = ["build-skeleton", inputs.session_csv, "--output", skel]
    if workload.known_tree:
        fit += ["--hierarchy", inputs.parent_csv]
    replay = ["reconstruct", inputs.session_csv, skel, out]
    if workload.orthonormalize:
        replay.append("--orthonormalize")
    return [str(a) for a in fit], [str(a) for a in replay], skel, out


def run_job(workload, inputs, outdir: Path) -> Job:
    fit_args, replay_args, skel, out = job_argv(workload, inputs, outdir)
    for path in (skel, out):
        path.unlink(missing_ok=True)
    log = outdir / "stderr.txt"
    slices = [host_slice_s()]
    fit = run_step(cli(*fit_args), log)
    slices.append(host_slice_s())
    if fit.code or not skel.is_file():
        return Job(fit, None, slices, [f"fit exited {fit.code} ({log.read_text()[-300:]!r})"])
    replay = run_step(cli(*replay_args), log)
    slices.append(host_slice_s())
    if replay.code or not out.is_file():
        return Job(
            fit, replay, slices, [f"replay exited {replay.code} ({log.read_text()[-300:]!r})"]
        )
    # the check below is not timed
    try:
        model = load_skeleton(skel)
    except (OSError, ValueError, KeyError, SkelfitError) as exc:
        return Job(fit, replay, slices, [f"skeleton JSON unreadable: {exc}"])
    acc = accuracy(model, inputs.truth)
    problems = replay_problems(model, inputs.session, out)
    if workload.gate_accuracy:
        problems += accuracy_problems(acc)
    hashes = {"skel.json": sha256(skel), "out.csv": sha256(out)}
    return Job(fit, replay, slices, problems, acc, hashes)


def machine_record() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def median(values):
    return statistics.median(values) if values else float("nan")


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up, run jobs for `seconds`, optionally trace one; return results."""
    setups = []
    before = host_slice_s()
    for _ in range(SETUP_REPEATS):
        spans = {}
        t0 = time.perf_counter()
        inputs = set_up(workload, seed, workdir, spans)
        spans["setup_wall_s"] = time.perf_counter() - t0
        after = host_slice_s()
        spans["setup_s"] = at_ref_speed(spans["setup_wall_s"], before, after)
        setups.append(spans)
        before = after
    outdir = workdir / "job"
    outdir.mkdir(exist_ok=True)

    # start another job only while one more of the mean length still fits
    jobs = []
    start = time.perf_counter()
    while not jobs or (time.perf_counter() - start) * (len(jobs) + 1) / len(jobs) <= seconds:
        jobs.append(run_job(workload, inputs, outdir))
    good = [j for j in jobs if j.ok] or jobs
    replayed = [j for j in good if j.replay]
    result = {
        "workload": workload.name,
        "seed": seed,
        "jobs": len(jobs),
        "failed": sum(not j.ok for j in jobs),
        "problems": sorted({p for j in jobs for p in j.problems}),
        "end_to_end": {
            "fit_s": median([j.fit_s for j in good]),
            "replay_s": median([j.replay_s for j in replayed]),
            "peak_rss_mb": median([max(j.fit.rss_mib, j.replay.rss_mib) for j in replayed]),
            "setup_s": median([s["setup_s"] for s in setups]),
        },
        "wall": {
            "fit_wall_s": median([j.fit.wall_s for j in good]),
            "replay_wall_s": median([j.replay.wall_s for j in replayed]),
            "setup_wall_s": median([s["setup_wall_s"] for s in setups]),
            "host_slice_s": median([t for j in jobs for t in j.slices]),
        },
        "record": {
            **machine_record(),
            "workload": workload.name,
            "seed": seed,
            "m": inputs.bodies,
            "n": inputs.frames,
            "csv_bytes": inputs.csv_bytes,
            "sha256": next((j.hashes for j in jobs if j.hashes), {}),
            "sha256_same_every_job": len({json.dumps(j.hashes) for j in jobs}) == 1,
            "ref_slice_s": REF_SLICE_S,
            "fit_wall_s_samples": [j.fit.wall_s for j in jobs],
            "replay_wall_s_samples": [j.replay.wall_s for j in jobs if j.replay],
            "setup_wall_s_samples": [s["setup_wall_s"] for s in setups],
            "host_slice_s_samples": [j.slices for j in jobs],
        },
    }
    scored = [j.acc for j in jobs if j.acc is not None]
    if scored:
        result["accuracy"] = {
            "joint_err_max_m": max(a.joint_err_max_m for a in scored),
            "class_errors": max(a.class_errors for a in scored),
            "hierarchy_errors": max(a.hierarchy_errors for a in scored),
        }
    if trace:
        result["per_layer"], result["detail"] = traced(
            workload, inputs, workdir / "trace", setups, result
        )
    return result


def traced(workload, inputs, outdir: Path, setups, result):
    """Trace one job, each step in a fresh process; returns (metrics, detail)."""
    fit_s, replay_s = result["wall"]["fit_wall_s"], result["wall"]["replay_wall_s"]
    outdir.mkdir(exist_ok=True)
    fit_args, replay_args, _, out = job_argv(workload, inputs, outdir)
    steps = {}
    for name, args in (("fit", fit_args), ("replay", replay_args)):
        log = outdir / f"{name}.txt"
        step = run_step(
            [sys.executable, str(HERE / "trace_job.py"), *args], outdir / "stderr.txt", log
        )
        lines = log.read_text().splitlines()
        t = json.loads(lines[-1]) if lines else {}
        if step.code or "spans" not in t:
            raise RuntimeError(f"traced {name} step failed: {lines[-3:]}")
        t["step_s"] = step.wall_s - t["extra_s"]
        steps[name] = t
    fit, replay = steps["fit"], steps["replay"]
    spans = {k: fit["spans"].get(k, 0.0) + replay["spans"].get(k, 0.0)
             for k in {*fit["spans"], *replay["spans"]}}
    acc = result.get("accuracy", {})
    metrics = {
        "capture.load_session.s": spans.get("capture.load_session", 0.0),
        "capture.load_session.bytes": 2 * inputs.csv_bytes,
        "capture.validate.s": spans.get("capture.validate", 0.0),
        "capture.write_session.s": spans.get("capture.write_session", 0.0),
        "capture.write_session.bytes": out.stat().st_size,
        "hierarchy.s": sum(v for k, v in spans.items() if k.startswith("hierarchy.")),
        "hierarchy.build_fit_matrix.pairs": fit["fit_matrix_pairs"],
        "hierarchy.fit_matrix.retained_bytes": fit["retained_bytes"],
        "hierarchy.tree_pair_ratio": fit["tree_pair_ratio"],
        "solver.s": fit["solver_s"],
        "solver.solve_joint.s_per_pair": fit["s_per_pair"],
        "solver.pair_solves": fit["pair_solves"],
        "solver.assembled_bytes": fit["assembled_bytes"],
        "solver.class_errors": acc.get("class_errors", -1),
        "skeleton.fit_skeleton.s": spans.get("skeleton.fit_skeleton", 0.0),
        "skeleton.fit_skeleton.resolved_pairs": fit["resolved_pairs"],
        "skeleton.reconstruct.s": spans.get("skeleton.reconstruct", 0.0),
        "skeleton.joint_gaps.s": spans.get("skeleton.joint_gaps", 0.0),
        "skeleton.joint_err_max_m": acc.get("joint_err_max_m", float("nan")),
        "cli.import_s": median([fit["import_s"], replay["import_s"]]),
        "cli.fit.other_s": fit_s - fit["import_s"] - sum(fit["spans"].values()),
        "cli.replay.other_s": replay_s - replay["import_s"] - sum(replay["spans"].values()),
        "setup.generate.s": median([s["synth.generate.s"] for s in setups]),
        "setup.write_session.s": median([s["capture.write_session.s"] for s in setups]),
        "trace.overhead_s": fit["step_s"] + replay["step_s"] - fit_s - replay_s,
    }
    detail = {f"{k}.s": v for k, v in spans.items()}
    detail["trace.outputs_match"] = result["record"]["sha256"].get("out.csv") == sha256(out)
    return metrics, detail


def result_line(results: list, trace: bool) -> dict:
    """The benchmark's last output line."""
    metrics = {}
    for r in results:
        values = r["per_layer"] if trace else r["end_to_end"]
        units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    return {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["jobs"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def report(r: dict):
    """Human-readable block for one workload."""
    print(
        f"== {r['workload']}  seed {r['seed']}  m {r['record']['m']}  n {r['record']['n']}"
        f"  jobs {r['jobs']}  failed {r['failed']} (share {r['failed'] / r['jobs']:.3f})"
    )
    for name, value in r["end_to_end"].items():
        count = SETUP_REPEATS if name == "setup_s" else r["jobs"] - r["failed"] or r["jobs"]
        print(f"  {name:<18} {value:12.6g} {END_TO_END_UNITS[name]:<4} median of {count}")
    for name, value in r["wall"].items():
        print(f"  {name:<18} {value:12.6g} s    median, not scaled")
    for name, value in r.get("accuracy", {}).items():
        unit = "m" if name.endswith("_m") else "count"
        print(f"  {name:<18} {value:12.6g} {unit:<4} worst job")
    for problem in r["problems"]:
        print(f"  FAILED: {problem}")
    print("record " + json.dumps(r["record"]))


def layer_table(results: list):
    """Per-layer metrics, one column per workload, plus every span seen."""
    names = list(PER_LAYER_UNITS)
    names += sorted({k for r in results for k in r["detail"]} - set(names))
    print(f"{'per-layer (traced job)':<40}" + "".join(f"{r['workload']:>14}" for r in results))
    for name in names:
        cells = []
        for r in results:
            v = r["per_layer"].get(name, r["detail"].get(name))
            cells.append(f"{'-' if v is None else format(v, '.6g'):>14}")
        print(f"{name:<40}" + "".join(cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    seeds = parser.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, default=1, help="input seed")
    seeds.add_argument(
        "--held-out", action="store_true", help=f"use the held-out seed {HELD_OUT_SEED}"
    )
    parser.add_argument("--seconds", type=float, default=40.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the checker, then exit")
    args = parser.parse_args(argv)
    if args.self_test:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_selftest_") as tmp:
            return self_test(Path(tmp))
    seed = HELD_OUT_SEED if args.held_out else args.seed
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    results = []
    try:
        for name in names:
            workdir = WORK / name
            shutil.rmtree(workdir, ignore_errors=True)
            results.append(measure(WORKLOADS[name], seed, args.seconds, args.trace, workdir))
            shutil.rmtree(workdir, ignore_errors=True)
            report(results[-1])
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if args.trace:
        layer_table(results)
    print(json.dumps(result_line(results, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
