"""Boundary tracing for the traced benchmark run.

`Tracer.install()` replaces each boundary function with a wrapper, by module
attribute, in every `isoperim.*` module that bound it (``profile`` imports
``classify`` from ``geometry``, so patching ``geometry.classify`` alone would
miss its calls), and patches methods on their class so that internal
``self.`` calls are counted too. Wrappers keep a span stack: a call's self
time is its duration minus the time of the wrapped calls it made. A target
that a later refactor removes is skipped, and the metrics built only from
absent targets are reported as absent rather than zero.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np


@dataclass
class Stat:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    work: int = 0            # target-specific count, see TARGETS
    work2: int = 0
    errors: Counter = field(default_factory=Counter)


def _trig_call(stat, args, result):
    series, t = args[0], args[1]
    n = int(np.size(t))
    stat.work += n
    stat.work2 += n * (series.order + 1)


def _trig_integral(stat, args, result):
    series = args[0]
    n = int(np.size(np.broadcast(np.asarray(args[1]), np.asarray(args[2]))))
    stat.work += 2 * n       # the antiderivative is evaluated at both ends
    stat.work2 += 2 * n * series.order


def _points_arg1(stat, args, result):
    stat.work += int(np.size(args[1]))


def _rows_arg2(stat, args, result):
    stat.work += int(np.size(args[2]))


def _len_result(stat, args, result):
    stat.work += len(result)


def _one(stat, args, result):
    stat.work += 1


def _not_none(stat, args, result):
    stat.work += result is not None


# (module, attribute path, work hook). The layer is the module's short name;
# arcs.f_evals counts each two_point_f call plus each row of two_point_f_many.
TARGETS = [
    ("isoperim.trig", "TrigSeries.__call__", _trig_call),
    ("isoperim.trig", "TrigSeries.integral_between", _trig_integral),
    ("isoperim.geometry", "SupportCurve.sample", _points_arg1),
    ("isoperim.geometry", "RadialCurve.sample", _points_arg1),
    ("isoperim.geometry", "SupportCurve.contains_many", None),
    ("isoperim.geometry", "RadialCurve.contains_many", None),
    ("isoperim.geometry", "classify", None),
    ("isoperim.disk", "profile", None),
    ("isoperim.disk", "area_to_theta", None),
    ("isoperim.disk", "theta_to_area", None),
    ("isoperim.disk", "theta_to_length", None),
    ("isoperim.disk", "theta_to_curvature", None),
    ("isoperim.disk", "arc", None),
    ("isoperim.arcs", "two_point_f", _one),
    ("isoperim.arcs", "two_point_f_many", _rows_arg2),
    ("isoperim.arcs", "two_point_grad", None),
    ("isoperim.arcs", "build_arc", None),
    ("isoperim.arcs", "scan_arc_roots", _len_result),
    ("isoperim.arcs", "_correct_s2", None),
    ("isoperim.profile", "general_profile_oracle", None),
    ("isoperim.profile", "_refine_on_branch", _not_none),
    ("isoperim.profile", "_circle_profile_value", None),
    ("isoperim.profile", "symmetric_profile", None),
    ("isoperim.profile", "family_area_at", None),
    ("isoperim.profile", "conjecture_check", None),
    ("isoperim.perturbation", "profile_decrease_experiment", None),
    ("isoperim.perturbation", "build_perturbed_domain", None),
    ("isoperim.perturbation", "mode_condition", None),
    ("isoperim.perturbation", "find_mode_roots", None),
    ("isoperim.perturbation", "implicit_curve_sample", _len_result),
    ("isoperim.cli", "main", None),
]

LAYERS = ("trig", "geometry", "disk", "arcs", "profile", "perturbation", "cli")


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self.active = False
        self.bytes_out = 0
        self.layer_errors = {layer: Counter() for layer in LAYERS}
        self._stack: list = []
        self._restore: list = []

    # --- installation ------------------------------------------------------

    def install(self):
        self.absent.clear()
        modules = {n: m for n, m in sys.modules.items()
                   if n == "isoperim" or n.startswith("isoperim.")}
        for mod_name, path, hook in TARGETS:
            key = f"{mod_name.rsplit('.', 1)[1]}.{path}"
            owner = modules.get(mod_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            attr = parts[-1]
            if owner is None or attr not in vars(owner):
                self.absent.append(key)
                continue
            orig = vars(owner)[attr]
            stat = self.stats.setdefault(key, Stat())
            wrapper = self._wrap(orig, stat, hook, key.split(".", 1)[0])
            if len(parts) > 1:       # method: patch the class only
                self._patch(owner, attr, orig, wrapper)
                continue
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, name, orig, wrapper)

    def _patch(self, owner, name, orig, wrapper):
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, orig))

    def uninstall(self):
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()

    def _wrap(self, fn: Callable, stat: Stat, hook, layer: str):
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._record_error(stat, layer, exc)
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat.calls += 1
                stat.incl_s += dt
                stat.self_s += dt - frame[0]
            if hook is not None:
                hook(stat, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _record_error(self, stat: Stat, layer: str, exc: Exception):
        stat.errors[type(exc).__name__] += 1
        # an exception crossing several wrapped calls of one layer counts once
        # for that layer
        seen = exc.__dict__.setdefault("_traced_layers", set())
        if layer not in seen:
            seen.add(layer)
            self.layer_errors[layer][type(exc).__name__] += 1

    # --- metrics -----------------------------------------------------------

    def metrics(self) -> dict:
        """name -> value for every per-layer metric whose targets exist."""
        out = {}

        def put(name, keys, fn):
            stats = [self.stats.get(k) for k in keys]
            present = [s for s in stats if s is not None]
            if present:
                out[name] = fn(present)

        calls = lambda ss: sum(s.calls for s in ss)
        self_s = lambda ss: sum(s.self_s for s in ss)
        incl_s = lambda ss: sum(s.incl_s for s in ss)
        work = lambda ss: sum(s.work for s in ss)
        work2 = lambda ss: sum(s.work2 for s in ss)
        errors = lambda ss: sum(sum(s.errors.values()) for s in ss)

        trig = ["trig.TrigSeries.__call__", "trig.TrigSeries.integral_between"]
        put("trig.calls", trig, calls)
        put("trig.points", trig, work)
        put("trig.point_modes", trig, work2)
        put("trig.self_s", trig, self_s)

        sample = ["geometry.SupportCurve.sample", "geometry.RadialCurve.sample"]
        put("geometry.sample_calls", sample, calls)
        put("geometry.sample_points", sample, work)
        put("geometry.points_per_sample", sample,
            lambda ss: work(ss) / calls(ss) if calls(ss) else 0.0)
        put("geometry.sample_self_s", sample, self_s)
        put("geometry.classify_calls", ["geometry.classify"], calls)
        put("geometry.classify_s", ["geometry.classify"], incl_s)
        put("geometry.contains_calls", ["geometry.SupportCurve.contains_many",
                                        "geometry.RadialCurve.contains_many"], calls)

        disk = [f"disk.{n}" for n in ("profile", "area_to_theta", "theta_to_area",
                                      "theta_to_length", "theta_to_curvature", "arc")]
        put("disk.calls", disk, calls)
        put("disk.self_s", disk, self_s)

        put("arcs.f_evals", ["arcs.two_point_f", "arcs.two_point_f_many"], work)
        put("arcs.grad_evals", ["arcs.two_point_grad"], calls)
        put("arcs.build_arc_calls", ["arcs.build_arc"], calls)
        put("arcs.build_arc_self_s", ["arcs.build_arc"], self_s)
        put("arcs.scan_calls", ["arcs.scan_arc_roots"], calls)
        put("arcs.scan_self_s", ["arcs.scan_arc_roots"], self_s)
        put("arcs.roots_found", ["arcs.scan_arc_roots"], work)
        put("arcs.correct_calls", ["arcs._correct_s2"], calls)
        put("arcs.correct_self_s", ["arcs._correct_s2"], self_s)
        arcs_keys = [f"arcs.{p}" for m, p, _ in TARGETS if m == "isoperim.arcs"]
        put("arcs.errors", arcs_keys,
            lambda ss: sum(self.layer_errors["arcs"].values()))

        put("profile.oracle_calls", ["profile.general_profile_oracle"], calls)
        put("profile.oracle_self_s", ["profile.general_profile_oracle"], self_s)
        put("profile.refine_calls", ["profile._refine_on_branch"], calls)
        put("profile.refine_hits", ["profile._refine_on_branch"], work)
        put("profile.refine_hit_ratio", ["profile._refine_on_branch"],
            lambda ss: work(ss) / calls(ss) if calls(ss) else 0.0)
        put("profile.refine_errors", ["profile._refine_on_branch"], errors)
        put("profile.circle_route_calls", ["profile._circle_profile_value"], calls)
        put("profile.symmetric_self_s", ["profile.symmetric_profile"], self_s)
        put("profile.family_area_calls", ["profile.family_area_at"], calls)
        put("profile.conjecture_self_s", ["profile.conjecture_check"], self_s)

        put("perturbation.experiment_self_s",
            ["perturbation.profile_decrease_experiment"], self_s)
        put("perturbation.build_domain_calls",
            ["perturbation.build_perturbed_domain"], calls)
        put("perturbation.build_domain_s",
            ["perturbation.build_perturbed_domain"], incl_s)
        put("perturbation.mode_condition_calls", ["perturbation.mode_condition"], calls)
        put("perturbation.mode_roots_self_s", ["perturbation.find_mode_roots"], self_s)
        put("perturbation.implicit_self_s",
            ["perturbation.implicit_curve_sample"], self_s)
        put("perturbation.implicit_points",
            ["perturbation.implicit_curve_sample"], work)

        put("cli.calls", ["cli.main"], calls)
        put("cli.self_s", ["cli.main"], self_s)
        put("cli.bytes_out", ["cli.main"], lambda ss: self.bytes_out)
        return out

    def error_breakdown(self) -> dict:
        """Exception counts by type: per layer, and out of the refinement."""
        out = {f"{layer}.errors": dict(c) for layer, c in self.layer_errors.items() if c}
        refine = self.stats.get("profile._refine_on_branch")
        if refine is not None and refine.errors:
            out["profile.refine_errors"] = dict(refine.errors)
        return out


def line_counts(src: Path) -> dict:
    """`<module>.loc` for each module of the package, plus `src.loc`."""
    out = {}
    total = 0
    for path in sorted(src.rglob("*.py")):
        n = len(path.read_text(encoding="utf-8").splitlines())
        total += n
        if path.parent == src / "isoperim":
            stem = "init" if path.stem == "__init__" else path.stem
            out[f"{stem}.loc"] = n
    out["src.loc"] = total
    return out
