"""Command-line entry point: ``python -m repro.bench``.

Examples::

    python -m repro.bench list
    python -m repro.bench move_complexity --sizes 200,400,800
    python -m repro.bench scenario --name all --policy fifo,random,adversary \\
        --seeds 0,1,2,3,4 --faults "stall=0.05,storms=3" --out grid.json
    python -m repro.bench memory --sizes 100,400
    python -m repro.bench apps --out BENCH_apps.json
    python -m repro.bench apps --apps name_assignment --policies adversary

Wall-clock measurement lives in ``stackbench/`` (see its README).
"""

import argparse
import inspect
import json
import sys
from typing import Callable, List

from repro.bench.runner import SCENARIOS
from repro.errors import InvariantViolation
from repro.registry import CONTROLLER_FLAVORS


def _positive_int(text: str) -> int:
    """argparse type for counts: a zero or negative value is a usage
    error, not a crash deep inside the run."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def _positive_ints(minimum: int = 1) -> Callable[[str], List[int]]:
    """argparse type for a comma-separated list of at least ``minimum``
    positive integers (a sweep's sizes)."""
    def parse(text: str) -> List[int]:
        values = [_positive_int(part) for part in text.split(",") if part]
        if len(values) < minimum:
            raise argparse.ArgumentTypeError(
                f"need at least {minimum} size(s), got {len(values)}")
        return values
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Paper-claim and audit sweeps for the (M,W)-Controller "
                    "reproduction (JSON output; each run raises on a "
                    "failed check).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available scenarios")

    common_out = dict(help="write the JSON document to this path as well")

    p = sub.add_parser("move_complexity",
                       help="Observation 3.4 sweep (bench_e02 shape; "
                            "raises if moves reach the bound)")
    p.add_argument("--sizes", type=_positive_ints(2), default=None,
                   help="path lengths, at least two (default: "
                        "200,400,800,1600,3200)")
    p.add_argument("--out", **common_out)

    p = sub.add_parser(
        "scenario",
        help="the adversarial catalogue grid (scenario x engine x "
             "policy x seed) with invariant auditing")
    p.add_argument("--name", default="all",
                   help="catalogue scenario name(s), comma-separated, or "
                        "'all'")
    p.add_argument("--policy", default="fifo,random,adversary",
                   help="schedule policies, comma-separated "
                        "(fifo, random, lifo, adversary)")
    p.add_argument("--faults", default=None,
                   help="fault plan, e.g. 'stall=0.05,pauses=2,storms=3'")
    p.add_argument("--seeds", default="0,1,2,3,4",
                   help="seeds, comma-separated")
    p.add_argument("--engines", default="iterated,distributed",
                   help="engines, comma-separated from the controller "
                        f"registry ({', '.join(CONTROLLER_FLAVORS)}), or "
                        "'all' for every registered flavor; names are "
                        "validated before any cell runs")
    p.add_argument("--delays", default="uniform",
                   help="delay model (unit, uniform, heavytail, jitter, "
                        "burst)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="scale the catalogue specs, > 0 (CI smoke uses "
                        "e.g. 0.2)")
    p.add_argument("--out", **common_out)

    p = sub.add_parser("memory",
                       help="Claim 4.8 per-node memory audit under a "
                            "concurrent storm (raises if any node "
                            "exceeds the bound)")
    p.add_argument("--sizes", type=_positive_ints(), default=None,
                   help="tree sizes (default: 100,400,1600)")
    p.add_argument("--stagger", type=float, default=0.25)
    p.add_argument("--out", **common_out)

    p = sub.add_parser("apps",
                       help="Section 5 application layer: msgs/change "
                            "polylog fits and the event-driven policy x "
                            "fault grid (invariant-audited)")
    p.add_argument("--apps", default="all",
                   help="app name(s), comma-separated, or 'all'")
    p.add_argument("--sizes", type=_positive_ints(), default=None,
                   help="complexity sweep sizes (default: 100,200,400)")
    p.add_argument("--steps-per-node", type=_positive_int, default=3,
                   dest="steps_per_node")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policies", default="fifo,random,adversary",
                   help="grid: schedule policies for the event-driven "
                        "cells")
    p.add_argument("--faults", default="stall=0.05",
                   help="grid: fault plan for the faulted cells "
                        "(e.g. 'stall=0.05')")
    p.add_argument("--grid-n", type=_positive_int, default=40,
                   dest="grid_n")
    p.add_argument("--grid-steps", type=_positive_int, default=120,
                   dest="grid_steps")
    p.add_argument("--out", **common_out)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name, fn in SCENARIOS.items():
            summary = (inspect.getdoc(fn) or "").splitlines()[0]
            print(f"{name:20s} {summary}")
        return 0
    runner = SCENARIOS[args.command]
    accepted = set(inspect.signature(runner).parameters)
    kwargs = {k: v for k, v in vars(args).items()
              if k in accepted and v is not None}
    failure = None
    try:
        result = runner(**kwargs)
    except InvariantViolation as error:
        # The grid runner attaches the full report to the failure so the
        # violation evidence survives (and CI can upload it).
        result = getattr(error, "document", None)
        if result is None:
            raise
        failure = error
    document = json.dumps(result, indent=2)
    print(document)
    if getattr(args, "out", None):
        with open(args.out, "w") as handle:
            handle.write(document + "\n")
        print(f"# wrote {args.out}", file=sys.stderr)
    if failure is not None:
        raise failure
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
