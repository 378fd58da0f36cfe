"""Set-up of one workload in a cold interpreter: import the CLI, write the inputs.

    python3 bench/setup_inputs.py WORKLOAD DIR

Always imports ``altfrob.cli`` (what every job pays on start).  For
``deform`` it builds the big-quantum deformation problems of P^4 (order 6)
and, for the smoke variant, P^1 (order 3) from the public API, writes each
as a family file and a problem file, and reads both back through
``loads_family`` and ``problem_from_json``; a mismatch exits 1, so a
malformed input fails the set-up and not a timed job.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import altfrob.cli  # noqa: F401  (the cold import is part of the set-up cost)
from altfrob import (DeformationProblem, Laurent, Series, dumps_family,
                     loads_family, pn_small_family, problem_from_json,
                     problem_to_json)

# family file, problem file, projective dimension, truncation order
DEFORM_INPUTS = [("p4.json", "psi.json", 4, 6), ("p1.json", "psi1.json", 1, 3)]


def big_quantum_problem(n: int, order: int) -> DeformationProblem:
    """Tautological period data Psi = sum_{j != 1} t_j omega_j on P^n's q-line."""
    fam = pn_small_family(n)
    new_vars = tuple(f"t{j}" for j in range(n + 1) if j != 1)
    svars = fam.svars + new_vars
    one = Laurent.const(fam.qvars, 1)
    psi = tuple(Series.zero(svars, order) if i == 1
                else Series.gen(svars, order, f"t{i}", one) for i in range(fam.d))
    omega = tuple(Fraction(1 if i == 0 else 0) for i in range(fam.d))
    return DeformationProblem(fam, new_vars, psi, omega, order)


def main() -> int:
    workload, out_dir = sys.argv[1], Path(sys.argv[2])
    if workload != "deform":
        return 0
    for fam_name, psi_name, n, order in DEFORM_INPUTS:
        problem = big_quantum_problem(n, order)
        fam_text = dumps_family(problem.initial)
        (out_dir / fam_name).write_text(fam_text)
        (out_dir / psi_name).write_text(
            json.dumps(problem_to_json(problem), sort_keys=True) + "\n")
        fam = loads_family((out_dir / fam_name).read_text())
        back = problem_from_json(fam, json.loads((out_dir / psi_name).read_text()))
        if (dumps_family(fam) != fam_text
                or back._replace(initial=problem.initial) != problem):
            print(f"setup: {fam_name} and {psi_name} do not load back to the "
                  "generated problem", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
