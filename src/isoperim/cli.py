"""Command-line front end.

Subcommands: domain-info, profile, check-conjecture, arcs-find,
perturb (roots|experiment), implicit-curve. Every command is deterministic
(identical config gives byte-identical output) and writes UTF-8.

Exit codes: 0 success/pass, 1 check completed but failed, 2 config error,
3 domain precondition violated, 4 numerical failure (3 and 4 are declared on
the error classes in `errors`).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

import numpy as np

from . import arcs as arcsmod
from . import perturbation as pertmod
from . import profile as profilemod
from .errors import IsDisk, IsoperimError, NumericalError
from .geometry import SupportCurve, classify, domain_from_spec

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_domain(args) -> SupportCurve:
    spec = None
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    if args.spec_json:
        spec = json.loads(args.spec_json)
    # flags win over the spec's params for the same preset; a spec that is
    # not an object, or params that are not one, reach domain_from_spec's checks
    if args.preset and (spec is None or isinstance(spec, dict)):
        same = spec is not None and spec.get("preset") == args.preset
        params = (spec.get("params") if same else None) or {}
        if isinstance(params, dict):
            names = ("radius",) if args.preset == "disk" else ("a", "b")
            params = {**params, **{name: getattr(args, name) for name in names
                                   if getattr(args, name) is not None}}
        spec = {"preset": args.preset, "params": params}
    if spec is None:
        raise ValueError("no domain given: use --preset or --spec")
    return domain_from_spec(spec)


def _samples(text: str) -> int:
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {n}")
    return n


def _steps(text: str) -> int:
    n = int(text)
    if n < 3:
        raise argparse.ArgumentTypeError(f"must be at least 3, got {n}")
    return n


def _finite(text: str) -> float:
    x = float(text)
    if not np.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return x


def _positive(text: str) -> float:
    x = _finite(text)
    if x <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return x


def _add_domain_args(p):
    p.add_argument("--preset", choices=["disk", "ellipse"])
    p.add_argument("--a", type=_finite, help="ellipse semi-axis on x")
    p.add_argument("--b", type=_finite, help="ellipse semi-axis on y")
    p.add_argument("--radius", type=_finite, help="disk radius")
    p.add_argument("--spec", help="path to a JSON domain spec")
    p.add_argument("--spec-json", help="inline JSON domain spec")


def cmd_domain_info(args) -> int:
    curve = _load_domain(args)
    report = classify(curve)
    bound = float(np.sqrt(np.pi / report.area))
    payload = {**asdict(report), "pestov_ionin": {
        "bound": bound,
        "satisfied": report.kappa_max >= bound - 1e-12,
        "strict": report.kappa_max > bound + 1e-12,
    }}
    _emit(_json_dump(payload), args.output)
    return EXIT_OK


def cmd_profile(args) -> int:
    curve = _load_domain(args)
    table = profilemod.symmetric_profile(curve, args.samples)
    _emit(table.to_csv(), args.output)
    return EXIT_OK


def cmd_check_conjecture(args) -> int:
    curve = _load_domain(args)
    report = profilemod.conjecture_check(curve, args.samples)
    _emit(_json_dump(report.to_dict()), args.output)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_arcs_find(args) -> int:
    curve = _load_domain(args)
    if arcsmod.is_circle(curve):
        raise IsDisk("every endpoint pair of a circle bounds a perfect arc; "
                     "arcs-find needs a non-circular domain")
    roots = arcsmod.scan_arc_roots(curve, args.s1, args.grid)
    out = []
    for s2 in roots:
        lo, hi = (args.s1, s2) if args.s1 < s2 else (s2, args.s1)
        arc = arcsmod.build_arc(curve, lo, hi)
        out.append({
            "s1": args.s1,
            "s2": s2,
            "kind": arc.kind,
            "curvature": arc.curvature,
            "radius": arc.radius,
            "length": arc.length,
            "enclosed_area": arc.enclosed_area,
            "contained": bool(arc.contained),
            "ortho_residual": arc.ortho_residual,
        })
    _emit(_json_dump(out), args.output)
    return EXIT_OK


def cmd_perturb_roots(args) -> int:
    roots = pertmod.find_mode_roots(args.n)
    _emit(_json_dump([asdict(r) for r in roots]), args.output)
    return EXIT_OK


def cmd_perturb_experiment(args) -> int:
    f = pertmod.PerturbationField.mode(args.mode)
    if args.area is not None:
        area = args.area
    else:
        roots = pertmod.find_mode_roots(args.mode) if args.mode >= 2 else []
        area = roots[0].area if roots else np.pi / 2.0 - 1.0
    s_grid = tuple(args.s_max * (k + 1) / args.s_steps
                   for k in range(args.s_steps))
    config = pertmod.ExperimentConfig(s_grid=s_grid, n_s1=args.grid)
    report = pertmod.profile_decrease_experiment(f, area, config)
    _emit(_json_dump(report.to_dict()), args.output)
    return EXIT_OK


def cmd_implicit_curve(args) -> int:
    pts = pertmod.implicit_curve_sample((args.xmin, args.xmax),
                                        (args.ymin, args.ymax),
                                        args.resolution)
    lines = ["x,y"] + [f"{_fmt(x)},{_fmt(y)}" for x, y in pts]
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="isoperim",
        description="Isoperimetric profiles of planar convex bodies "
                    "via free-boundary circular arcs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("domain-info", help="area, curvature extremes, symmetry class")
    _add_domain_args(p)
    p.add_argument("--output", "-o")
    p.set_defaults(fn=cmd_domain_info)

    p = sub.add_parser("profile", help="symmetric-family profile table (CSV)")
    _add_domain_args(p)
    p.add_argument("--samples", type=_samples, default=256)
    p.add_argument("--output", "-o")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("check-conjecture", help="sup L/L* against the unit disk")
    _add_domain_args(p)
    p.add_argument("--samples", type=_samples, default=256)
    p.add_argument("--output", "-o")
    p.set_defaults(fn=cmd_check_conjecture)

    p = sub.add_parser("arcs-find", help="perfect arcs from a boundary point")
    _add_domain_args(p)
    p.add_argument("--s1", type=_finite, required=True,
                   help="first endpoint (normal angle, radians)")
    p.add_argument("--grid", type=_samples, default=arcsmod.SCAN_POINTS,
                   help="scan nodes on the boundary: s1 + 2*pi*j/GRID")
    p.add_argument("--output", "-o")
    p.set_defaults(fn=cmd_arcs_find)

    p = sub.add_parser("perturb", help="perturbation analysis")
    psub = p.add_subparsers(dest="perturb_command", required=True)

    pr = psub.add_parser("roots", help="profile-critical half-angles of a mode")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--output", "-o")
    pr.set_defaults(fn=cmd_perturb_roots)

    pe = psub.add_parser("experiment", help="profile-decrease fit for cos(n u)")
    pe.add_argument("--mode", type=int, required=True)
    pe.add_argument("--area", type=_finite,
                    help="target area (default: the mode's critical area)")
    pe.add_argument("--s-max", type=_positive, default=5e-3)
    pe.add_argument("--s-steps", type=_steps, default=5)
    pe.add_argument("--grid", type=_samples, default=profilemod.N_S1)
    pe.add_argument("--output", "-o")
    pe.set_defaults(fn=cmd_perturb_experiment)

    p = sub.add_parser("implicit-curve",
                       help="zero set of the mode condition (CSV points)")
    p.add_argument("--xmin", type=_finite, default=None)
    p.add_argument("--xmax", type=_finite, default=8.0)
    p.add_argument("--ymin", type=_finite, default=0.01)
    p.add_argument("--ymax", type=_finite, default=1.56)
    p.add_argument("--resolution", type=_samples, default=400)
    p.add_argument("--output", "-o")
    p.set_defaults(fn=cmd_implicit_curve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    if getattr(args, "xmin", "absent") is None:
        args.xmin = -args.xmax
    try:
        return args.fn(args)
    except (json.JSONDecodeError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IsoperimError as exc:
        kind = ("numerical failure" if isinstance(exc, NumericalError)
                else "domain precondition")
        print(f"{kind}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
