#!/usr/bin/env python3
"""The profile oracle on a fixed set of 55 calls, written to JSON.

The calls:
  * the five s > 0 domains of the profile-decrease experiments of cos 2u at
    contact half-angles b = 0.85, 1.0 and 1.2, of cos 3u at b = 0.9 and of
    cos 4u at its critical area, each at its experiment's area;
  * the ellipses of aspect 1.05, 1.6, 3 and 6, the two-mode domain
    (1, 0, 0.1, 0, 0.003) and the asymmetric domain (1, 0.05, 0.03), (0, 0.02),
    the last two normalized to area pi, each at A in {5e-3, 0.05, 0.5, 1.2, pi/2}.

Per call it records the value or the type of the refusal, how many
refinements the oracle dropped (its `isoperim` debug log) and how many
boundary samples it took (`SupportCurve.sample` plus `RadialCurve.sample`
calls); the JSON holds these rows under "single". With `--batched` it also
runs the 55 calls as 11 calls of `oracle_pairs`, one per batch (each
experiment's five domains, then each domain at its five areas), writes their
rows under "batched", and prints their refusals and dropped refinements, the
largest value change from one call per pair, and every refusal that
differs. With `--against OTHER.json` it prints, for the single rows and for
the batched rows that both runs hold, the largest value change against the
other run and every call whose refusal or drop count differs; for the single
rows it also prints the boundary-sample totals, other -> this run, and every
call whose count rose.
"""

import argparse
import json
import logging
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from isoperim import disk
from isoperim import perturbation as pert
from isoperim import profile as prof
from isoperim.geometry import RadialCurve, SupportCurve

S_GRID = pert.ExperimentConfig().s_grid
AREAS = (5e-3, 0.05, 0.5, 1.2, np.pi / 2.0)


def batches():
    """The 55 calls as 11 batches of (name, curve, area): each experiment's
    five domains at its area, then each domain (one curve) at its five areas."""
    experiments = [(f"cos {n}u b={b}", n, disk.theta_to_area(b))
                   for n, b in ((2, 0.85), (2, 1.0), (2, 1.2), (3, 0.9))]
    experiments.append(("cos 4u critical", 4, pert.find_mode_roots(4)[0].area))
    for name, n, area in experiments:
        yield [(f"{name} s={s:g}",
                pert.build_perturbed_domain(pert.PerturbationField.mode(n), s), area)
               for s in S_GRID]
    domains = [(f"ellipse {aspect:g}",
                SupportCurve.ellipse(np.sqrt(aspect), 1.0 / np.sqrt(aspect)))
               for aspect in (1.05, 1.6, 3.0, 6.0)]
    domains += [
        ("two-mode", SupportCurve((1.0, 0.0, 0.1, 0.0, 0.003)).normalized_to(np.pi)),
        ("asymmetric", SupportCurve((1.0, 0.05, 0.03), (0.0, 0.02)).normalized_to(np.pi))]
    for name, curve in domains:
        yield [(f"{name} A={area:.6g}", curve, area) for area in AREAS]


class DropCounter(logging.Handler):
    """Counts the oracle's "refinement dropped" debug records and, in
    `samples`, the boundary samples that `counting` reports."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.count = self.samples = 0

    def emit(self, record):
        self.count += "refinement dropped" in record.getMessage()


def counting(sample, counter):
    """`sample` that adds one to `counter.samples` per call."""
    def counted(self, *args, **kwargs):
        counter.samples += 1
        return sample(self, *args, **kwargs)
    return counted


def run(batched=False) -> tuple:
    """(rows, dropped): one row per call, and the refinements dropped by each
    oracle call, which is one call per pair or, if `batched`, one per batch.
    A row's "dropped" and "samples" are its call's counts, None when
    batched."""
    logger, counter = logging.getLogger("isoperim"), DropCounter()
    level = logger.level
    logger.addHandler(counter)
    logger.setLevel(logging.DEBUG)
    samplers = {cls: cls.sample for cls in (SupportCurve, RadialCurve)}
    for cls, sample in samplers.items():
        cls.sample = counting(sample, counter)
    rows, dropped = [], []
    try:
        for batch in batches():
            for call in [batch] if batched else [[case] for case in batch]:
                counter.count = counter.samples = 0
                values, errors = prof.oracle_pairs([c for _, c, _ in call],
                                                   [a for _, _, a in call], prof.N_S1)
                for (name, _, area), value, exc in zip(call, values, errors):
                    refused = exc is not None
                    rows.append({"case": name, "area": area,
                                 "value": None if refused else float(value),
                                 "refusal": type(exc).__name__ if refused else None,
                                 "dropped": None if batched else counter.count,
                                 "samples": None if batched else counter.samples})
                dropped.append(counter.count)
    finally:
        for cls, sample in samplers.items():
            cls.sample = sample
        logger.removeHandler(counter)
        logger.setLevel(level)
    return rows, dropped


def compare(rows: list, other: list, keys=("refusal", "dropped"), label=""):
    """Print the largest value change and every changed refusal or drop count
    (the entries `keys`), each line after `label`."""
    if [r["case"] for r in rows] != [r["case"] for r in other]:
        raise SystemExit("the two runs hold different calls")
    worst, where = 0.0, None
    for new, old in zip(rows, other):
        if new["value"] is not None and old["value"] is not None:
            change = abs(new["value"] - old["value"])
            if change > worst or where is None:
                worst, where = change, new["case"]
        for key in keys:
            if new[key] != old[key]:
                print(f"{label}{new['case']}: {key} {old[key]} -> {new[key]}")
    print(f"{label}largest value change: {worst:.3e} ({where})")


def compare_work(rows: list, other: list, label=""):
    """Print the boundary-sample totals, `other` -> `rows`, and every call
    whose count rose, each line after `label`."""
    totals = [sum(r.get("samples") or 0 for r in run) for run in (other, rows)]
    print(f"{label}boundary samples: {totals[0]} -> {totals[1]}")
    for new, old in zip(rows, other):
        if (new.get("samples") or 0) > (old.get("samples") or 0):
            print(f"{label}{new['case']}: samples {old.get('samples')} "
                  f"-> {new['samples']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="oracle_values.json")
    parser.add_argument("--against", help="an earlier run's JSON to compare with")
    parser.add_argument("--batched", action="store_true",
                        help="also run the calls as 11 batches and compare")
    args = parser.parse_args()
    rows, dropped = run()
    out = {"single": rows}
    if args.batched:
        out["batched"], batch_dropped = run(batched=True)
    Path(args.out).write_text(json.dumps(out, indent=1), encoding="utf-8")
    refused = sum(r["refusal"] is not None for r in rows)
    print(f"wrote {args.out}: {len(rows)} calls, {refused} refused, "
          f"{sum(dropped)} refinements dropped, "
          f"{sum(r['samples'] for r in rows)} boundary samples")
    if args.batched:
        print(f"batched: {len(batch_dropped)} calls, "
              + ", ".join(f"{r['case']} refused ({r['refusal']})"
                          for r in out["batched"] if r["refusal"])
              + f", {sum(batch_dropped)} refinements dropped")
        compare(out["batched"], rows, keys=("refusal",))
    if args.against:
        other = json.loads(Path(args.against).read_text(encoding="utf-8"))
        for kind in [k for k in out if k in other]:
            compare(out[kind], other[kind], label=f"{kind} against {args.against}: ")
        compare_work(rows, other["single"], label=f"single against {args.against}: ")


if __name__ == "__main__":
    main()
