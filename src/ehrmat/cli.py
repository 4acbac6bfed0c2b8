"""Command-line front end.

Commands:
    ehrmat ehrhart <file>                 Ehrhart coefficients + volume
    ehrmat hstar <file>                   h*-vector + unimodality
    ehrmat verify <file> --kmax K         pipeline vs brute-force oracle
    ehrmat genfun <file>                  generating-function terms
    ehrmat scan-uniform --nmax N [--rmax R] [--csv]
                                          conjecture scan via closed forms

Input files are UTF-8 JSON matroid documents; subsets are sorted
1-based integer arrays. Exit codes: 0 ok, 1 conjecture violation or
verification mismatch, 2 validation error, 3 enumeration budget,
4 internal error (a broken pipeline invariant or any other crash).
"""

import argparse
import json
import sys
from fractions import Fraction
from math import factorial

from . import bruteforce, genfun, hstar, specialize
from .matroid import (
    BudgetExceeded, RankFunction, ValidationError, check_matroid_axioms,
    check_polymatroid_axioms,
)
from .vertices import (
    BASES_POLYTOPE, INDEPENDENCE_POLYTOPE, POLYMATROID, PolytopeSpec,
)

EXIT_OK = 0
EXIT_CONJECTURE = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

SCAN_GUARD_NMAX = 100


def load_document(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return parse_document(doc)


def _int(x, what):
    # a JSON integer: no float, string or bool is coerced
    if type(x) is not int:
        raise ValidationError(f"{what} must be an integer, got {x!r}")
    return x


def _int_list(x, what):
    if not isinstance(x, list) or any(type(v) is not int for v in x):
        raise ValidationError(f"{what} must be a list of integers, got {x!r}")
    return x


def _subset(x, what):
    if len(set(_int_list(x, what))) != len(x):
        raise ValidationError(f"{what} {x!r} repeats an element")
    return frozenset(x)


def parse_document(doc):
    """Parse and validate a matroid document into a PolytopeSpec."""
    try:
        family = doc["family"]
        kind = doc["kind"]
        name = doc.get("name", "<unnamed>")
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"missing field: {exc}") from exc
    if family not in (BASES_POLYTOPE, INDEPENDENCE_POLYTOPE, POLYMATROID):
        raise ValidationError(f"unknown family {family!r}")
    try:
        if kind == "uniform":
            f = RankFunction.uniform(_int(doc["n"], "n"), _int(doc["r"], "r"))
        elif kind == "graphic":
            edges = [tuple(_int_list(e, "edge")) for e in doc["edges"]]
            if any(len(e) != 2 for e in edges):
                raise ValidationError("every edge must be a pair")
            f = RankFunction.graphic(len(edges), edges)
        elif kind == "bases":
            n = _int(doc["n"], "n")
            bases = [_subset(b, "basis") for b in doc["bases"]]
            seen = set()
            for b in bases:
                if b in seen:
                    raise ValidationError(f"bases lists basis {sorted(b)}"
                                          f" twice")
                seen.add(b)
            f = RankFunction.from_bases(n, bases)
        elif kind == "table":
            n = _int(doc["n"], "n")
            table = {}
            for entry in doc["values"]:
                a = _subset(entry["subset"], "subset")
                if a in table:
                    raise ValidationError(f"table lists subset {sorted(a)}"
                                          f" twice")
                table[a] = _int(entry["value"], "value")
            if (len([a for a in table if a]) != (1 << n) - 1
                    or any(not 1 <= x <= n for a in table for x in a)
                    or table.get(frozenset(), 0) != 0):
                raise ValidationError("table must list every non-empty subset"
                                      " of 1..n, and the empty set only as 0")
            f = RankFunction.from_table(n, table)
        else:
            raise ValidationError(f"unknown kind {kind!r}")
    except (ValidationError, BudgetExceeded):
        raise
    except Exception as exc:
        raise ValidationError(f"malformed document: {exc}") from exc
    if family == POLYMATROID or kind == "table":
        ok, why = check_polymatroid_axioms(f)
    else:
        ok, why = check_matroid_axioms(f)
    if not ok:
        raise ValidationError(f"axiom check failed for {name}: {why}")
    try:
        return name, PolytopeSpec(family, f)
    except ValueError as exc:
        raise ValidationError(f"{name}: {exc}") from exc


def pipeline_ehrhart(spec):
    return specialize.ehrhart_polynomial(genfun.build_genfun(spec))


def _frac_str(x):
    return str(Fraction(x))


def cmd_ehrhart(args):
    name, spec = load_document(args.file)
    poly = pipeline_ehrhart(spec)
    dim = len(poly) - 1
    volume = factorial(dim) * Fraction(poly[-1])
    if volume.denominator != 1:
        raise AssertionError(f"normalized volume {volume} is not an integer")
    out = {
        "name": name,
        "coefficients": [_frac_str(c) for c in poly],
        "volumeNormalized": _frac_str(poly[-1]),
        "normalizedVolume": volume.numerator,
        "dim": dim,
    }
    print(json.dumps(out))
    return EXIT_OK


def cmd_hstar(args):
    name, spec = load_document(args.file)
    poly = pipeline_ehrhart(spec)
    dim = len(poly) - 1
    h = hstar.ehrhart_to_hstar(poly, dim)
    out = {
        "name": name,
        "hstar": list(h),
        "unimodal": hstar.is_unimodal(h),
    }
    print(json.dumps(out))
    return EXIT_OK


def cmd_verify(args):
    if args.kmax < 0:
        raise ValidationError(f"--kmax must be >= 0, got {args.kmax}")
    name, spec = load_document(args.file)
    # brute force has the smaller size guard, so it runs first: an
    # instance too large for it fails before the pipeline does any work
    oracle = bruteforce.ehrhart_by_interpolation(spec)
    poly = pipeline_ehrhart(spec)
    match = poly == oracle
    first_diff = None
    if not match:
        for i in range(max(len(poly), len(oracle))):
            a = poly[i] if i < len(poly) else Fraction(0)
            b = oracle[i] if i < len(oracle) else Fraction(0)
            if a != b:
                first_diff = i
                break
    counts = []
    for k in range(1, args.kmax + 1):
        pk = specialize.count(poly, k)
        bk = bruteforce.count_direct(spec, k)
        counts.append({"k": k, "pipeline": pk, "bruteforce": bk,
                       "match": pk == bk})
        match = match and pk == bk
    out = {
        "name": name,
        "match": match,
        "pipeline": [_frac_str(c) for c in poly],
        "bruteforce": [_frac_str(c) for c in oracle],
        "firstDifferingCoefficient": first_diff,
        "counts": counts,
    }
    print(json.dumps(out))
    return EXIT_OK if match else EXIT_CONJECTURE


def cmd_genfun(args):
    name, spec = load_document(args.file)
    g = genfun.build_genfun(spec)
    out = {
        "name": name,
        "n": g.n,
        "dim": g.dim,
        "termCount": len(g.terms),
        "terms": [{
            "sign": t.sign,
            "a": list(t.a),
            "v": list(t.v),
            "b": [list(b) for b in t.bs],
        } for t in g.terms],
    }
    print(json.dumps(out))
    return EXIT_OK


def cmd_scan_uniform(args):
    if args.nmax < 2 or args.rmax < 1:
        raise ValidationError(f"need --nmax >= 2 and --rmax >= 1, got"
                              f" --nmax {args.nmax} --rmax {args.rmax}")
    if args.nmax > SCAN_GUARD_NMAX:
        raise BudgetExceeded(f"scan guard: nmax={args.nmax} exceeds 100")
    rows = []
    violation = False
    for n in range(2, args.nmax + 1):
        for r in range(1, min(args.rmax, n - 1) + 1):
            rep = hstar.uniform_conjecture_report(n, r)
            if not rep["hstarUnimodal"]:
                violation = True
            if rep.get("ehrhartCoeffsPositive") is False:
                violation = True
            rows.append(rep)
    if args.csv:
        print("n,r,hstarUnimodal,ehrhartCoeffsPositive")
        for rep in rows:
            print(f"{rep['n']},{rep['r']},{rep['hstarUnimodal']},"
                  f"{rep.get('ehrhartCoeffsPositive', '')}")
    else:
        print(json.dumps({"rows": rows, "violation": violation}))
    return EXIT_CONJECTURE if violation else EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ehrmat",
        description="Exact Ehrhart polynomials and h*-vectors of matroid"
                    " and polymatroid polytopes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ehrhart", help="Ehrhart coefficients and volume")
    p.add_argument("file")
    p.set_defaults(func=cmd_ehrhart)

    p = sub.add_parser("hstar", help="h*-vector and unimodality verdict")
    p.add_argument("file")
    p.set_defaults(func=cmd_hstar)

    p = sub.add_parser("verify", help="cross-check against brute force")
    p.add_argument("file")
    p.add_argument("--kmax", type=int, default=3)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("genfun", help="dump generating-function terms")
    p.add_argument("file")
    p.set_defaults(func=cmd_genfun)

    p = sub.add_parser("scan-uniform", help="conjecture scan, closed forms")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--rmax", type=int, default=10**9)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_scan_uniform)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # the instance an internal error names: the document, or the command
    # when it reads none
    where = getattr(args, "file", args.command)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        # the document could not be read as JSON
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except AssertionError as exc:
        print(f"internal error: {where}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # any other crash after validation is a pipeline fault too; left
        # uncaught, Python would exit 1, the code of a verdict
        print(f"internal error: {where}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
