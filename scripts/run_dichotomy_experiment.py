#!/usr/bin/env python3
"""Profile-decrease experiments for radial perturbations of the unit disk.

Three runs:
  * cos(2u) at the area whose contact half-angle is pi/4 — the first
    variation l(u) = sin 2u is nonzero, so the profile drops at first
    order with slope min_u l = -1;
  * cos(4u) at its critical area (~1.01687), where l vanishes identically
    and the drop is second order;
  * a rigid translation of the disk as the null control (flat profile).
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from isoperim import disk
from isoperim import perturbation as pert


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--s-max", type=float, default=5e-3)
    parser.add_argument("--steps", type=int, default=5)
    parser.add_argument("--out", default="dichotomy_experiments.json")
    args = parser.parse_args()

    s_grid = tuple(args.s_max * (k + 1) / args.steps for k in range(args.steps))
    config = pert.ExperimentConfig(s_grid=s_grid)

    runs = {}

    area1 = disk.theta_to_area(np.pi / 4.0)
    rep = pert.profile_decrease_experiment(pert.PerturbationField.mode(2),
                                           area1, config)
    runs["cos2u_first_order"] = rep.to_dict()
    print(f"cos(2u) @ area {area1:.6f}: {rep.verdict}, "
          f"alpha = {rep.alpha:.6f}, beta = {rep.beta:.3f}")

    area2 = pert.find_mode_roots(4)[0].area
    rep = pert.profile_decrease_experiment(pert.PerturbationField.mode(4),
                                           area2, config)
    runs["cos4u_second_order"] = rep.to_dict()
    print(f"cos(4u) @ area {area2:.6f}: {rep.verdict}, "
          f"alpha = {rep.alpha:.2e}, beta = {rep.beta:.3f}")

    rep = pert.profile_decrease_experiment(
        pert.PerturbationField.mode(1), area1, config,
        domain_builder=pert.translated_disk)
    runs["translation_control"] = rep.to_dict()
    spread = max(rep.profile_values) - min(rep.profile_values)
    print(f"translation control: {rep.verdict}, profile spread = {spread:.2e}")

    Path(args.out).write_text(json.dumps(runs, indent=2, sort_keys=True),
                              encoding="utf-8")
    print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
