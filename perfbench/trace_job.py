"""Traced replay of one CLI step, in a fresh process of its own.

Usage (from the repository root, with PYTHONPATH=src):

    python perfbench/trace_job.py build-skeleton session.csv --output skel.json
    python perfbench/trace_job.py reconstruct session.csv skel.json out.csv

The arguments are those of `python -m skelfit.cli`.  The first thing
this process does is import skelfit.cli, so that import is timed as a
fresh CLI process pays it.  Then every function skelfit.cli imported
from another skelfit module is wrapped in a perf_counter span, as is
solve_joint where hierarchy and skeleton call it, and the step runs
through skelfit.cli.main in this process.  After a build-skeleton step
the counts are computed from the returned objects and the fitted tree
edges are solved once more, directly, to time one solve.  The last line
of standard output is one JSON object; extra_s is the time spent after
the step, which the caller leaves out of the traced step's time.
"""
import time

_start = time.perf_counter()
import skelfit.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _start

import contextlib  # noqa: E402
import functools  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

from skelfit import hierarchy, skeleton, solver  # noqa: E402


def array_bytes(obj, seen=None) -> int:
    """Bytes of every numpy array reachable from obj, each counted once."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(array_bytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(array_bytes(v, seen) for v in obj)
    if hasattr(obj, "__dict__"):
        return array_bytes(vars(obj), seen)
    return 0


class Trace:
    """Spans of the calls the CLI makes into the other layers."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.last = {}  # span name -> the value its last call returned
        self.active = None  # the CLI-level span a solve runs under
        self.solves = []  # (enclosing span, unordered pair, frames)
        self.solve_s = 0.0

    def wrap_cli_calls(self):
        for attr, fn in list(vars(skelfit.cli).items()):
            module = getattr(fn, "__module__", None) or ""
            if inspect.isfunction(fn) and module.startswith("skelfit.") and module != "skelfit.cli":
                name = f"{module.split('.')[1]}.{fn.__name__}"
                setattr(skelfit.cli, attr, self._span(name, fn))

    def _span(self, name, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.active = name
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - t0
                self.active = None
            self.last[name] = out
            return out

        return timed

    def wrap_solver(self):
        original = solver.solve_joint

        @functools.wraps(original)
        def counted(session, child, parent, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(session, child, parent, *args, **kwargs)
            finally:
                self.solve_s += time.perf_counter() - t0
                self.solves.append(
                    (self.active, frozenset((child, parent)), session.frame_count)
                )

        for module in (hierarchy, skeleton):
            if getattr(module, "solve_joint", None) is original:
                module.solve_joint = counted

    def run(self, argv) -> dict:
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = skelfit.cli.main(argv)
        return {"code": code, "main_s": time.perf_counter() - t0, "spans": dict(self.seconds)}

    def fit_counts(self) -> dict:
        """Counts of a build-skeleton step, from what its calls returned."""
        fit_matrix = self.last.get("hierarchy.build_fit_matrix")
        m = 0 if fit_matrix is None else fit_matrix.epsilon.shape[0]
        matrix_pairs = {p for span, p, _ in self.solves if span == "hierarchy.build_fit_matrix"}
        solved_pairs = {p for _, p, _ in self.solves}
        model = self.last["skeleton.fit_skeleton"]
        return {
            "solver_s": self.solve_s,
            "s_per_pair": per_pair_seconds(self.last["capture.load_session"], model),
            "pair_solves": len(self.solves),
            "assembled_bytes": sum(3 * n * 7 * 8 for _, _, n in self.solves),
            "fit_matrix_pairs": m * (m - 1) // 2,
            "retained_bytes": 0 if fit_matrix is None else array_bytes(fit_matrix),
            "resolved_pairs": sum(
                1 for span, p, _ in self.solves
                if span == "skeleton.fit_skeleton" and p in matrix_pairs
            ),
            "tree_pair_ratio": len(model.joints) / len(solved_pairs) if solved_pairs else 0.0,
        }


def per_pair_seconds(session, model) -> float:
    """Median time of one solve_joint over the fitted tree edges."""
    times = []
    for body, joint in sorted(model.joints.items()):
        t0 = time.perf_counter()
        solver.solve_joint(session, body, joint.parent)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv) -> int:
    trace = Trace()
    trace.wrap_cli_calls()
    trace.wrap_solver()
    result = {"import_s": IMPORT_S, **trace.run(argv)}
    t0 = time.perf_counter()
    if result["code"] == 0 and argv[0] == "build-skeleton":
        result.update(trace.fit_counts())
    result["extra_s"] = time.perf_counter() - t0
    print(json.dumps(result))
    return result["code"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
