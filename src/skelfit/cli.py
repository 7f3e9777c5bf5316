"""Command-line front end for the fitting pipeline.

Exit codes: 0 success, 2 malformed input file or bad usage, 3 data that
cannot be fit (degenerate, missing, or mismatched), 4 I/O failure.
Numbers print with 9 significant digits; JSON and CSV outputs keep full
float precision.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from dataclasses import replace
from typing import Optional

from .capture import (
    CaptureSession,
    load_labels,
    load_session,
    with_labels,
    write_json,
    write_labels,
    write_session,
)
from .capture import validate as validate_session
from .errors import ParseError, SkelfitError
from .hierarchy import (
    build_fit_matrix,
    infer_hierarchy,
    load_parent_map,
    tree_order,
    write_fit_matrix_csv,
)
from .skeleton import (
    adjacent_joint_pairs,
    fit_skeleton,
    joint_gaps,
    limb_length,
    load_skeleton,
    reconstruct,
    save_skeleton,
    skeleton_to_dict,
)
from .solver import (
    DEFAULT_RANK_TOL,
    MAX_HISTOGRAM_BINS,
    Classification,
    calibrate_pair,
    residual_histogram,
    solve_joint,
    write_histogram_csv,
    write_residual_csv,
)


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


def _fmt_vec(v) -> str:
    return "[" + ", ".join(_fmt(x) for x in v) + "]"


def _load(args) -> CaptureSession:
    # the small sidecar first, so a bad one fails before the session is parsed
    return _load_session(args, _read_labels(args))


def _read_labels(args) -> dict[int, str]:
    return load_labels(args.labels) if args.labels else {}


def _load_session(args, labels: dict[int, str]) -> CaptureSession:
    session = with_labels(load_session(args.session, unit_scale=args.unit_scale), labels)
    for message in validate_session(session):
        print(f"warning: {message}", file=sys.stderr)
    return session


def _fit_report(session: CaptureSession, fit) -> dict:
    return {
        "child": fit.child,
        "child_label": session.label_of(fit.child),
        "parent": fit.parent,
        "parent_label": session.label_of(fit.parent),
        "frames": session.frame_count,
        "classification": str(fit.classification),
        "epsilon_m": float(fit.epsilon),
        "c": [float(x) for x in fit.c],
        "l": [float(x) for x in fit.l],
        "singular_values": [float(x) for x in fit.singular_values],
        "axis_child": None
        if fit.axis_child is None
        else [float(x) for x in fit.axis_child],
        "axis_parent": None
        if fit.axis_parent is None
        else [float(x) for x in fit.axis_parent],
    }


def _print_fit(session: CaptureSession, fit):
    print(f"pair: {session.label_of(fit.child)} -> {session.label_of(fit.parent)}")
    print(f"classification: {fit.classification}")
    print(f"epsilon_m: {_fmt(fit.epsilon)}")
    print(f"c: {_fmt_vec(fit.c)}")
    print(f"l: {_fmt_vec(fit.l)}")
    print(f"singular_values: {_fmt_vec(fit.singular_values)}")
    if fit.classification is Classification.HINGE:
        print(f"axis_child: {_fmt_vec(fit.axis_child)}")
        print(f"axis_parent: {_fmt_vec(fit.axis_parent)}")


class UsageError(Exception):
    """A flag value that only the data shows to be unusable (exit 2)."""


def cmd_solve_joint(args) -> int:
    for flag, value in (("--bins", args.bins), ("--bin-width", args.bin_width)):
        if value is not None and not args.histogram:
            raise UsageError(f"argument {flag}: not allowed without argument --histogram")
    session = _load(args)
    child = session.resolve_body(args.child)
    parent = session.resolve_body(args.parent)
    fit = solve_joint(session, child, parent, rank_tol=args.rank_tol)
    if args.histogram:  # before any output, so a refused --bin-width leaves no file behind
        try:
            hist = residual_histogram(fit, bin_width=args.bin_width, bins=args.bins or 30)
        except ValueError as exc:  # bins is checked by argparse, so this is --bin-width
            raise UsageError(f"argument --bin-width: {exc}") from exc
    _print_fit(session, fit)
    residuals = fit.residual_per_frame
    print(f"min_m: {_fmt(residuals.min())}")
    print(f"max_m: {_fmt(residuals.max())}")
    print(f"mean_m: {_fmt(residuals.mean())}")
    if args.output:
        write_json(args.output, _fit_report(session, fit))
    if args.residuals:
        write_residual_csv(args.residuals, fit)
    if args.histogram:
        write_histogram_csv(args.histogram, hist)
    return 0


def cmd_build_skeleton(args) -> int:
    if args.hierarchy and args.fit_matrix:
        raise UsageError(
            "argument --fit-matrix: not allowed with argument --hierarchy "
            "(a given hierarchy builds no fit matrix)"
        )
    if args.hierarchy:
        parents = load_parent_map(args.hierarchy)
        tree_order(parents)  # a map that is not one tree fails before the CSV parse
    session = _load(args)
    m = session.body_count
    if args.root is not None and not 0 <= args.root < m:
        # checked before the all-pairs fit, which takes most of the run
        raise UsageError(f"argument --root: {args.root} is not a body index 0..{m - 1}")
    unused = []
    if not args.hierarchy:
        # inferred here rather than in fit_skeleton: only the CLI writes
        # the epsilon table and warns about possible loops
        fits = build_fit_matrix(session, rank_tol=args.rank_tol)
        if args.fit_matrix:
            write_fit_matrix_csv(args.fit_matrix, fits)
        result = infer_hierarchy(fits, root=args.root)
        unused = result.unused_low_error_edges
        parents = result.parent
    model = fit_skeleton(session, hierarchy=parents, rank_tol=args.rank_tol)

    print("joints:")
    for body in sorted(model.joints):
        joint = model.joints[body]
        print(
            f"  {session.label_of(body)} -> {session.label_of(joint.parent)}: "
            f"{joint.classification}, epsilon_m {_fmt(joint.epsilon)}"
        )
    pairs = adjacent_joint_pairs(model)
    if pairs:
        print("limb lengths (m):")
        for a, b in pairs:
            print(
                f"  {session.label_of(a)} - {session.label_of(b)}: "
                f"{_fmt(limb_length(model, a, b))}"
            )
    for i, j, eps in unused:
        print(
            f"warning: unused low-error pair "
            f"({session.label_of(i)}, {session.label_of(j)}), epsilon_m {_fmt(eps)}"
        )
    if args.output:
        save_skeleton(args.output, model)
        print(f"wrote {args.output}")
    else:
        print(json.dumps(skeleton_to_dict(model), indent=2))
    return 0


def cmd_reconstruct(args) -> int:
    # the small files (the --labels sidecar, then the skeleton JSON) first, so a
    # bad one fails before the session is parsed: when the skeleton and the
    # session are both bad, the skeleton's error is the one reported
    labels = _read_labels(args)
    model = load_skeleton(args.skeleton)
    session = _load_session(args, labels)
    before = joint_gaps(model, session)
    rebuilt = reconstruct(model, session, orthonormalize=args.orthonormalize)
    after = joint_gaps(model, rebuilt)
    worst_before = max((g.max() for g in before.values()), default=0.0)
    worst_after = max((g.max() for g in after.values()), default=0.0)
    print(f"max joint gap before: {_fmt(worst_before)} m")
    print(f"max joint gap after: {_fmt(worst_after)} m")
    write_session(args.out, rebuilt)
    print(f"wrote {args.out}")
    return 0


def cmd_synth(args) -> int:
    # imported here: no other command needs synth, and it takes a few ms to import
    from .synth import PRESETS, generate, load_spec, save_spec

    if args.preset:
        spec = PRESETS[args.preset]()
    else:
        spec = load_spec(args.spec)
    if args.frames is not None:
        spec = replace(spec, frame_count=args.frames)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    session, truth = generate(spec)

    os.makedirs(args.out_dir, exist_ok=True)
    session_path = os.path.join(args.out_dir, "session.csv")
    truth_path = os.path.join(args.out_dir, "truth.json")
    spec_path = os.path.join(args.out_dir, "spec.json")
    write_session(session_path, session)
    save_skeleton(truth_path, truth)
    save_spec(spec_path, spec)
    written = [session_path, truth_path, spec_path]
    if session.labels:
        labels_path = os.path.join(args.out_dir, "labels.csv")
        write_labels(labels_path, session.labels)
        written.append(labels_path)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_calibrate_pair(args) -> int:
    session = _load(args)
    body_a = session.resolve_body(args.body_a)
    body_b = session.resolve_body(args.body_b)
    cal = calibrate_pair(session, body_a, body_b, known_distance=args.known_distance)
    print(f"pair: {session.label_of(body_a)} - {session.label_of(body_b)}")
    print(f"frames: {len(cal.distances)}")
    print(f"mean_m: {_fmt(cal.mean_m)}")
    print(f"std_m: {_fmt(cal.std_m)}")
    print(f"scale: {_fmt(cal.scale)}")
    if args.output:
        report = {
            "body_a": body_a,
            "body_b": body_b,
            "frames": int(len(cal.distances)),
            "mean_m": cal.mean_m,
            "std_m": cal.std_m,
            "scale": cal.scale,
            "known_distance": args.known_distance,
        }
        write_json(args.output, report)
    return 0


def _finite_positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite positive number")
    return value


def _open_unit_interval(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number strictly between 0 and 1")
    return value


def _bin_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if not 1 <= value <= MAX_HISTOGRAM_BINS:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a positive integer at most {MAX_HISTOGRAM_BINS}"
        )
    return value


class _PresetNames:
    """The names of synth.PRESETS, sorted, for --preset's choices."""

    def __contains__(self, name) -> bool:
        return name in list(self)

    def __iter__(self):
        from .synth import PRESETS

        return iter(sorted(PRESETS))


def _add_load_flags(sub):
    sub.add_argument("session", help="transform-stream CSV")
    sub.add_argument(
        "--unit-scale",
        type=_finite_positive,
        default=1.0,
        help="multiply translations by this factor on load",
    )
    sub.add_argument("--labels", help="body,label sidecar CSV")


def _add_rank_tol(sub):
    sub.add_argument(
        "--rank-tol",
        type=_open_unit_interval,
        default=DEFAULT_RANK_TOL,
        help="relative singular-value cutoff (default %(default)g)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skelfit",
        description="Fit joint locations and hierarchy from world-transform streams.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("solve-joint", help="fit one body pair")
    _add_load_flags(sub)
    sub.add_argument("child", help="child body index or label")
    sub.add_argument("parent", help="parent body index or label")
    _add_rank_tol(sub)
    sub.add_argument("--output", help="write a JSON fit report")
    sub.add_argument("--residuals", help="write per-frame residual CSV")
    sub.add_argument("--histogram", help="write residual histogram CSV")
    sub.add_argument("--bins", type=_bin_count, help="histogram bin count (default 30)")
    sub.add_argument(
        "--bin-width", type=_finite_positive, help="histogram bin width in meters"
    )
    sub.set_defaults(func=cmd_solve_joint)

    sub = commands.add_parser("build-skeleton", help="fit every joint of the figure")
    _add_load_flags(sub)
    _add_rank_tol(sub)
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--hierarchy", help="body,parent CSV; skips inference")
    group.add_argument("--root", type=int, help="root body for inference")
    sub.add_argument("--output", help="write the skeleton JSON here")
    sub.add_argument("--fit-matrix", help="write the pairwise epsilon CSV")
    sub.set_defaults(func=cmd_build_skeleton)

    sub = commands.add_parser("reconstruct", help="replay through a fitted skeleton")
    _add_load_flags(sub)
    sub.add_argument("skeleton", help="skeleton JSON from build-skeleton")
    sub.add_argument("out", help="output transform-stream CSV")
    sub.add_argument(
        "--orthonormalize",
        action="store_true",
        help="snap each relative rotation to its nearest proper rotation",
    )
    sub.set_defaults(func=cmd_reconstruct)

    sub = commands.add_parser("synth", help="generate a synthetic session")
    source = sub.add_mutually_exclusive_group(required=True)
    preset = source.add_argument("--preset", help="bundled figure")
    # set after add_argument, which would list them at once: synth is imported
    # only when argparse checks or shows a preset name
    preset.choices = _PresetNames()
    source.add_argument("--spec", help="synth spec JSON")
    sub.add_argument("--out-dir", required=True, help="directory for outputs")
    sub.add_argument("--frames", type=int, help="override the spec frame count")
    sub.add_argument("--seed", type=int, help="override the spec seed")
    sub.set_defaults(func=cmd_synth)

    sub = commands.add_parser("calibrate-pair", help="distance stats of a rigid pair")
    _add_load_flags(sub)
    sub.add_argument("body_a", help="first body index or label")
    sub.add_argument("body_b", help="second body index or label")
    sub.add_argument(
        "--known-distance",
        type=_finite_positive,
        help="measured separation in meters; enables the scale estimate",
    )
    sub.add_argument("--output", help="write a JSON calibration report")
    sub.set_defaults(func=cmd_calibrate_pair)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (SkelfitError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run():
    """The `skelfit` console script and `python -m skelfit.cli`: main(), then exit.

    The garbage collector is frozen before the interpreter exits, so its
    shutdown does not walk the objects that numpy's import made.  main()
    never freezes it, so a caller that runs main() in-process is unaffected.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
