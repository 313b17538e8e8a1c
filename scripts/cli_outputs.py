#!/usr/bin/env python3
"""A fixed set of CLI commands, run in-process, with their outputs in JSON.

The 16 commands (`COMMANDS`): `arcs-find` on the sqrt-2 and 2:1 ellipses, the
asymmetric, two-mode and three-sine domains, the sqrt-2 ellipse with
`--grid 1024`, and the disk (refused); `domain-info` on the sqrt-2 ellipse
and the asymmetric domain; `profile` on the sqrt-2 ellipse;
`check-conjecture` on the sqrt-2 and aspect-3 ellipses; `perturb roots --n 7`;
`perturb experiment` for modes 2 and 4; and `implicit-curve`. Each command's
exit code, stdout and stderr are written under its name; positional names
run only those commands. With `--against OTHER.json` it prints every
command, of those both runs hold, whose exit code, stdout or stderr differs
from the other run, then how many differ.
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from isoperim import cli

SQRT2_ELLIPSE = ["--preset", "ellipse", "--a", "1.4142135623730951",
                 "--b", "0.7071067811865476"]
ASYMMETRIC = ["--spec-json",
              '{"support_cos": [1, 0.05, 0.03], "support_sin": [0, 0.02]}']
TWO_MODE = ["--spec-json", '{"support_cos": [1, 0, 0.1, 0, 0.003]}']
THREE_SINE = ["--spec-json",
              '{"support_cos": [1, 0, 0.04], "support_sin": [0, 0.03, 0.01]}']

COMMANDS = {
    "arcs-find ellipse": ["arcs-find", *SQRT2_ELLIPSE, "--s1", "0.3"],
    "arcs-find ellipse 2:1": ["arcs-find", "--preset", "ellipse", "--a", "2",
                              "--b", "1", "--s1", "1.0"],
    "arcs-find asymmetric": ["arcs-find", *ASYMMETRIC, "--s1", "0.3"],
    "arcs-find two-mode": ["arcs-find", *TWO_MODE, "--s1", "0.7"],
    "arcs-find three-sine": ["arcs-find", *THREE_SINE, "--s1", "2.0"],
    "arcs-find ellipse grid 1024": ["arcs-find", *SQRT2_ELLIPSE, "--s1", "0.3",
                                    "--grid", "1024"],
    "arcs-find disk": ["arcs-find", "--preset", "disk", "--s1", "0.3"],
    "domain-info ellipse": ["domain-info", *SQRT2_ELLIPSE],
    "domain-info asymmetric": ["domain-info", *ASYMMETRIC],
    "profile ellipse": ["profile", *SQRT2_ELLIPSE, "--samples", "32"],
    "check-conjecture ellipse": ["check-conjecture", *SQRT2_ELLIPSE,
                                 "--samples", "64"],
    "check-conjecture ellipse 3": ["check-conjecture", "--preset", "ellipse",
                                   "--a", "1.7320508075688772",
                                   "--b", "0.5773502691896258", "--samples", "64"],
    "perturb roots 7": ["perturb", "roots", "--n", "7"],
    "perturb experiment 2": ["perturb", "experiment", "--mode", "2"],
    "perturb experiment 4": ["perturb", "experiment", "--mode", "4"],
    "implicit-curve": ["implicit-curve"],
}


def run(names) -> dict:
    """{name: {"exit", "stdout", "stderr"}} of each named command."""
    out = {}
    for name in names:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(COMMANDS[name])
        out[name] = {"exit": code, "stdout": stdout.getvalue(),
                     "stderr": stderr.getvalue()}
    return out


def compare(runs: dict, other: dict, label=""):
    """Print each command of both runs whose entries differ, with the entries
    that do, then how many differ; each line after `label`."""
    both = [name for name in runs if name in other]
    differ = 0
    for name in both:
        changed = [key for key in runs[name] if runs[name][key] != other[name].get(key)]
        if changed:
            differ += 1
            print(f"{label}{name}: {', '.join(changed)} changed")
    print(f"{label}{differ} of {len(both)} commands differ")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("names", nargs="*", help="commands to run (default: all)")
    parser.add_argument("--out", default="cli_outputs.json")
    parser.add_argument("--against", help="an earlier run's JSON to compare with")
    args = parser.parse_args()
    unknown = [name for name in args.names if name not in COMMANDS]
    if unknown:
        parser.error(f"unknown commands {unknown}; known: {list(COMMANDS)}")
    runs = run(args.names or COMMANDS)
    Path(args.out).write_text(json.dumps(runs, indent=1), encoding="utf-8")
    print(f"wrote {args.out}: {len(runs)} commands")
    if args.against:
        other = json.loads(Path(args.against).read_text(encoding="utf-8"))
        compare(runs, other, label=f"against {args.against}: ")


if __name__ == "__main__":
    main()
