"""``repro.bench`` — the paper-claim and audit sweeps, as a CLI.

One-liner reproduction of the paper's checked claims::

    python -m repro.bench move_complexity             # Observation 3.4
    python -m repro.bench scenario --name all         # invariant grid
    python -m repro.bench memory --sizes 100,400      # Claim 4.8
    python -m repro.bench apps --out BENCH_apps.json  # Section 5 apps

Every subcommand returns (and prints) a JSON document: the parameters
it ran with, one row or cell per configuration, and the derived
headline numbers, so ``BENCH_*.json`` files checked into the repo are
reproducible from the command line alone.  Every subcommand also
**raises** when the claim or audit it checks fails.  Wall-clock
measurement is not done here: ``stackbench/`` times the whole stack
(see ``stackbench/README.md``).  See :mod:`repro.bench.runner` for the
implementations and ``docs/architecture.md`` for the engine under test.
"""

from repro.bench.runner import (
    SCENARIOS,
    run_apps,
    run_memory,
    run_move_complexity,
    run_scenario_grid,
)

__all__ = [
    "SCENARIOS",
    "run_apps",
    "run_memory",
    "run_move_complexity",
    "run_scenario_grid",
]
