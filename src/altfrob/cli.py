"""Command-line front end.

One entry point, six subcommands:

``pn``         emit (or check) the small quantum family of projective space.
``grassmann``  emit the alternate-product structure constants for G(r, n+1),
               compare them against the rim-hook oracle, or emit the pairing.
``gw``         genus-zero degree-d counts for the projective plane.
``mirror``     Jacobian algebra of the torus mirror, wedge spectra, and the
               quantum-vs-Gauss-Manin comparison.
``hm``         run the Hertling-Manin extension on a family + problem file.
``verify``     re-check a family file against the flatness and metric axioms.

Exit codes: 0 on success, 1 when a requested check fails, 2 on usage or
input errors.  Output is deterministic: JSON is emitted with sorted keys,
rationals are rendered as ``num/den`` strings, and q-polynomials as
``[power, coefficient]`` pairs in ascending power order.

Defaults can be placed in an ``altfrob.json`` file in the working directory
(keys ``K``, ``format``, ``out``, ``seed``, ``verbosity``);
command-line flags override the file.  A truncation order (``--order`` or
``K``) below 0, or above the truncation of the data it is applied to, is an
input error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .deform import (GW_DMAX, InvariantViolation, NotPrePrimitive, gw_pn2, hm_extend,
                     problem_from_json, wdvv_oracle)
from .grassmann import alt_metric, alt_structure_constants, rimhook_oracle
from .linalg import charpoly, wedge_indices
from .mirror import NotTame, compare_quantum_gm, mirror_brieskorn
from .presaito import (_encode_laurent, check_metric, check_pre_saito, dumps_family,
                       loads_family, wedge)
from .projective import pn_small_family
from .rings import json_text

CONFIG_NAME = "altfrob.json"
FORMATS = ("json", "csv", "pretty")

DEFAULTS = {
    "K": None,          # truncation order; None means "whatever the data carries"
    "format": "json",
    "out": None,        # None means stdout
    "seed": 0,
    "verbosity": 1,
}
# the flag (argparse dest) that overrides a config key, where the names differ
FLAG_OF = {"K": "order"}


class UsageError(Exception):
    """Bad flags or malformed input files; maps to exit code 2."""


class CheckFailed(Exception):
    """A requested verification did not hold; maps to exit code 1."""


# ---------------------------------------------------------------------------
# configuration and output plumbing


def _read_input(path: str, what: str, parse=json.loads):
    """``parse`` of an input file's UTF-8 text; every way it can fail is a UsageError.

    A missing or unreadable file, bytes that are not UTF-8, text that is not
    JSON or nests past the recursion limit, and a document ``parse`` rejects
    all exit 2 with one line.
    """
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} file not found: {path}")
    try:
        return parse(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read {what} file {path}: {exc.strerror or exc}")
    except (KeyError, ValueError, RecursionError) as exc:
        raise UsageError(f"could not parse {what} file {path}: {exc}")


def _read_json(path: str, what: str) -> dict:
    doc = _read_input(path, what)
    if not isinstance(doc, dict):
        raise UsageError(f"{what} file {path} must hold a JSON object")
    return doc


def _load_config(path: str | None) -> dict:
    """The named config file, or ./altfrob.json when it exists, or no settings."""
    if path is None:
        if not Path(CONFIG_NAME).is_file():
            return {}
        path = CONFIG_NAME
    doc = _read_json(path, "config")
    bad = [k for k in doc if k not in DEFAULTS]
    if bad:
        raise UsageError(f"unknown config keys in {path}: {', '.join(sorted(bad))}")
    for key, value in doc.items():
        if key == "format":
            ok, expected = value in FORMATS, f"one of {', '.join(FORMATS)}"
        elif key == "out":
            ok, expected = value is None or isinstance(value, str), "a string or null"
        elif key == "K":
            ok, expected = value is None or type(value) is int, "an integer or null"
        else:
            ok, expected = type(value) is int, "an integer"
        if not ok:
            raise UsageError(f"config file {path}: {key} must be {expected}, got {value!r}")
    return doc


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc.strerror or exc}")


def _note(args: argparse.Namespace, message: str) -> None:
    if args.verbosity >= 2:
        print(message, file=sys.stderr)


def _check_order(K: int | None, limit: int | None, what: str) -> None:
    """Reject an --order below 0, or above ``limit`` when there is one."""
    if K is None:
        return
    if K < 0:
        raise UsageError(f"--order must be at least 0, got {K}")
    if limit is not None and K > limit:
        raise UsageError(f"--order {K} exceeds {what} {limit}")


def _report(reports, *notes: str) -> tuple[str, int]:
    """The reports' lines, then ``notes``; exit 0 when every report holds, else 1."""
    lines = []
    for rep in reports:
        lines.append(f"== {rep.title} ==")
        lines.extend(rep.lines())
    return "\n".join(lines + list(notes)), 0 if all(rep.ok for rep in reports) else 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_pn(args: argparse.Namespace) -> tuple[str, int]:
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    fam = pn_small_family(args.n)
    if not args.check:
        return dumps_family(fam), 0
    K = args.order
    _check_order(K, fam.order, "the family's truncation")
    return _report([check_pre_saito(fam, order=K), check_metric(fam, order=K)])


def _pretty_table(table) -> str:
    lines = [f"alternate product on G({table.r}, {table.n + 1})"]
    for lam in table.basis():
        for mu in table.basis():
            if mu < lam:
                continue
            prod = table.product(lam, mu)
            if not prod:
                continue
            terms = []
            for nu in sorted(prod):
                terms.append(f"({' '.join(map(str, nu)) or '-'}) * [{str(prod[nu])}]")
            left = f"({' '.join(map(str, lam)) or '-'}) . ({' '.join(map(str, mu)) or '-'})"
            lines.append(f"{left} = {' + '.join(terms)}")
    return "\n".join(lines)


def _associativity_spot_check(table, seed: int) -> None:
    # every path a.b.c -> f drops the degree by |a| + |b| + |c| - |f|, so its
    # terms share one power of q and the int coefficients compare
    rng = random.Random(seed)
    basis = table.basis()
    for _ in range(20):
        a, b, c = (rng.choice(basis) for _ in range(3))
        left: dict = {}
        for e, cf in table.coefficients(a, b).items():
            for f, cf2 in table.coefficients(e, c).items():
                left[f] = left.get(f, 0) + cf * cf2
        right: dict = {}
        for e, cf in table.coefficients(b, c).items():
            for f, cf2 in table.coefficients(a, e).items():
                right[f] = right.get(f, 0) + cf * cf2
        for f in set(left) | set(right):
            if left.get(f, 0) != right.get(f, 0):
                raise CheckFailed(
                    f"associativity fails at {a} . {b} . {c} in component {f}")


def cmd_grassmann(args: argparse.Namespace) -> tuple[str, int]:
    r, n = args.r, args.n
    if not 1 <= r <= n:
        raise UsageError("need 1 <= r <= n")
    if args.oracle and args.metric:
        raise UsageError("--oracle and --metric cannot be combined")
    if args.metric:
        return json_text(alt_metric(r, n).to_json()), 0
    _note(args, f"building alternate product table for r={r}, n={n}")
    table = alt_structure_constants(r, n)

    if args.oracle:
        if table != rimhook_oracle(r, n):
            raise CheckFailed("alternate table disagrees with the rim-hook oracle")
        _associativity_spot_check(table, args.seed)
        count = len(table.basis()) * (len(table.basis()) + 1) // 2 - 1
        return f"tables agree ({count} products)", 0
    if args.format == "json":
        return table.to_json_text(), 0
    if args.format == "csv":
        return table.to_csv(), 0
    return _pretty_table(table), 0


def cmd_gw(args: argparse.Namespace) -> tuple[str, int]:
    if args.dmax < 1:
        raise UsageError("--dmax must be at least 1")
    if args.dmax > GW_DMAX:
        raise UsageError(f"--dmax {args.dmax} exceeds the largest degree {GW_DMAX} "
                         "that the potential's series order allows")
    _note(args, f"running the big quantum pipeline through degree {args.dmax}")
    counts = gw_pn2(args.dmax)
    oracle = wdvv_oracle(args.dmax)
    if counts != oracle:
        raise CheckFailed(
            f"pipeline counts {counts} disagree with the WDVV recursion {oracle}")
    return "N=[" + ",".join(map(str, counts)) + "]", 0


def cmd_mirror(args: argparse.Namespace) -> tuple[str, int]:
    n, r = args.n, args.wedge
    if n < 1:
        raise UsageError("--n must be at least 1")
    if r is not None and not 1 <= r <= n:
        raise UsageError("need 1 <= wedge degree <= n")

    if args.compare:
        rs = [r] if r is not None else range(1, n + 1)
        return _report([compare_quantum_gm(k, n) for k in rs])

    F, J = mirror_brieskorn(n)
    if r is not None:
        labels = J.labels()
        W = wedge(F, r)
        return json_text({
            "n": n,
            "wedge": r,
            "rank": W.d,
            "labels": ["^".join(labels[i] for i in I) for I in wedge_indices(n + 1, r)],
            "charpoly": [_encode_laurent(c) for c in charpoly(W.B0)],
        }), 0

    return json_text({
        "n": n,
        "dim": J.dim,
        "box": J.box,
        "basis": J.labels(),
        "matrix": [[_encode_laurent(F.B0[i, j]) for j in range(J.dim)] for i in range(J.dim)],
    }), 0


def cmd_hm(args: argparse.Namespace) -> tuple[str, int]:
    initial = _read_input(args.family, "family", loads_family)
    doc = _read_json(args.psi, "problem")
    try:
        problem = problem_from_json(initial, doc)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"could not parse problem file {args.psi}: {exc}")
    K = args.order
    _check_order(K, problem.order, "the problem data's order")
    if K is not None and K < problem.order:
        problem = problem._replace(order=K, psi=tuple(s.promote(s.vars, K) for s in problem.psi))
    _note(args, f"extending through order {problem.order}")
    try:
        extended = hm_extend(problem)
    except InvariantViolation as exc:
        raise CheckFailed(f"extension failed: {exc}")
    except (ValueError, NotPrePrimitive) as exc:
        raise UsageError(f"cannot extend {args.family} by {args.psi}: {exc}")
    return dumps_family(extended), 0


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    fam = _read_input(args.family, "family", loads_family)
    K = args.order
    _check_order(K, fam.order, "the family's truncation")
    try:
        reports = [check_pre_saito(fam, order=K)]
        if fam.G is not None:
            reports.append(check_metric(fam, order=K))
    except ValueError as exc:  # a product past the Series key limit
        raise UsageError(f"cannot check {args.family}: {exc}")
    if fam.G is None:
        return _report(reports, "(family carries no metric; metric axioms skipped)")
    return _report(reports)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altfrob",
        description="Alternate Frobenius products, torus mirrors, and their checks.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, metavar="FILE",
                        help=f"settings file (default ./{CONFIG_NAME})")
    common.add_argument("--format", choices=FORMATS, default=None,
                        help="output format for tables (default json)")
    common.add_argument("--out", default=None, metavar="FILE",
                        help="write output here instead of stdout")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized spot checks (default 0)")
    common.add_argument("--verbosity", type=int, default=None,
                        help="2 adds progress notes on stderr; 0 and 1 (default) "
                             "print the same")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pn", parents=[common],
                       help="small quantum family of projective space")
    p.add_argument("--n", type=int, required=True, help="dimension of the target")
    p.add_argument("--check", action="store_true",
                   help="run the flatness and metric checks instead of emitting JSON")
    p.add_argument("--order", type=int, default=None,
                   help="truncation order for the checks")
    p.set_defaults(handler=cmd_pn)

    p = sub.add_parser("grassmann", parents=[common],
                       help="alternate product structure constants for G(r, n+1)")
    p.add_argument("--r", type=int, required=True, help="wedge degree")
    p.add_argument("--n", type=int, required=True,
                   help="projective dimension (the Grassmannian is G(r, n+1))")
    p.add_argument("--oracle", action="store_true",
                   help="compare against the rim-hook oracle instead of emitting the table")
    p.add_argument("--metric", action="store_true",
                   help="emit the induced pairing instead of the table")
    p.set_defaults(handler=cmd_grassmann)

    p = sub.add_parser("gw", parents=[common],
                       help="degree-d rational curve counts in the plane")
    p.add_argument("--dmax", type=int, required=True, help="largest degree to compute")
    p.set_defaults(handler=cmd_gw)

    p = sub.add_parser("mirror", parents=[common],
                       help="Jacobian algebra of the torus mirror and wedge spectra")
    p.add_argument("--n", type=int, required=True, help="dimension of the torus")
    p.add_argument("--wedge", type=int, default=None, metavar="R",
                   help="emit the wedge-power spectrum instead of the algebra")
    p.add_argument("--compare", action="store_true",
                   help="compare against the quantum side (all wedge degrees, "
                        "or just --wedge R when given)")
    p.set_defaults(handler=cmd_mirror)

    p = sub.add_parser("hm", parents=[common],
                       help="extend a family by new directions (Hertling-Manin)")
    p.add_argument("--family", required=True, metavar="FILE",
                   help="initial family, as emitted by `pn` or `hm`")
    p.add_argument("--psi", required=True, metavar="FILE",
                   help="deformation problem (new variables, directions, unit row)")
    p.add_argument("--order", type=int, default=None,
                   help="truncation order (default: the problem file's order)")
    p.set_defaults(handler=cmd_hm)

    p = sub.add_parser("verify", parents=[common],
                       help="re-check a family file against the axioms")
    p.add_argument("--family", required=True, metavar="FILE", help="family JSON file")
    p.add_argument("--order", type=int, default=None,
                   help="truncation order for the checks")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config = _load_config(args.config)
        for key, default in DEFAULTS.items():  # flag > config file > default
            flag = FLAG_OF.get(key, key)
            if getattr(args, flag, None) is None:
                setattr(args, flag, config.get(key, default))
        text, code = args.handler(args)
        _emit(text, args.out)
        return code
    except (UsageError, NotTame) as exc:
        print(f"altfrob: error: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"altfrob: check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
