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
import functools
import json
import sys
from itertools import zip_longest
from math import factorial

from . import bruteforce, genfun, hstar, specialize
from .exactmath import poly_eval
from .matroid import (
    BudgetExceeded, RankFunction, check_matroid_axioms,
    check_polymatroid_axioms, guard_n,
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


class ValidationError(Exception):
    """Input from outside the program is malformed."""


def load_document(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh, object_pairs_hook=_unique_keys)
    return parse_document(doc)


def _unique_keys(pairs):
    # json keeps the last of a repeated key; a document that gives one
    # field two values is rejected instead, in every object
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValidationError(f"document repeats key {key!r}")
        obj[key] = value
    return obj


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
    if not isinstance(doc, dict):
        raise ValidationError(f"document must be a JSON object, got"
                              f" {type(doc).__name__}")
    try:
        family = doc["family"]
        kind = doc["kind"]
        name = doc.get("name", "<unnamed>")
    except KeyError as exc:
        raise ValidationError(f"missing field: {exc}") from exc
    if not isinstance(name, str):
        raise ValidationError(f"name must be a string, got {name!r}")
    if family not in (BASES_POLYTOPE, INDEPENDENCE_POLYTOPE, POLYMATROID):
        raise ValidationError(f"unknown family {family!r}")
    try:
        if kind == "uniform":
            f = RankFunction.uniform(_int(doc["n"], "n"), _int(doc["r"], "r"))
        elif kind == "graphic":
            f = RankFunction.graphic(
                [_int_list(e, "edge") for e in doc["edges"]])
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
                table[a] = entry["value"]
            # from_table guards n and checks the value types, the
            # elements' range and completeness; a listed empty set keeps
            # its value, which either family's check below rejects if != 0
            f = RankFunction.from_table(n, table)
        else:
            raise ValidationError(f"unknown kind {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        # a missing field, a value of the wrong type, or one a
        # constructor rejects; any other exception is an internal fault
        raise ValidationError(f"malformed document: {exc}") from exc
    if kind in ("bases", "table"):
        # uniform and graphic ranks are matroids by construction; listed
        # bases or values can break the axioms of the family they feed
        check = (check_polymatroid_axioms if family == POLYMATROID
                 else check_matroid_axioms)
        ok, why = check(f)
        if not ok:
            raise ValidationError(f"axiom check failed for {name}: {why}")
    return name, PolytopeSpec(family, f)


def pipeline_ehrhart(spec):
    return specialize.ehrhart_polynomial(genfun.build_genfun(spec))


def cmd_ehrhart(args):
    name, spec = load_document(args.file)
    poly = pipeline_ehrhart(spec)
    dim = len(poly) - 1
    volume = factorial(dim) * poly[-1]
    if volume.denominator != 1:
        raise AssertionError(f"cli: normalized volume {volume} is not"
                             " an integer")
    out = {
        "name": name,
        "coefficients": [str(c) for c in poly],
        "volumeNormalized": str(poly[-1]),
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
    first_diff = next((i for i, (a, b) in enumerate(
        zip_longest(poly, oracle, fillvalue=0)) if a != b), None)
    counts = []
    counted = bruteforce.interpolation_kmax(spec)
    for k in range(1, args.kmax + 1):
        pk = specialize.count(poly, k)
        # the oracle passes through the counts of k <= counted, so only
        # the dilations beyond them are counted here
        bk = (int(poly_eval(oracle, k)) if k <= counted
              else bruteforce.count_direct(spec, k))
        counts.append({"k": k, "pipeline": pk, "bruteforce": bk,
                       "match": pk == bk})
        match = match and pk == bk
    out = {
        "name": name,
        "match": match,
        "pipeline": [str(c) for c in poly],
        "bruteforce": [str(c) for c in oracle],
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
            # the pieces partition each tangent cone: every term counts +1
            "sign": 1,
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
    guard_n(args.nmax, SCAN_GUARD_NMAX, "scan")
    rows = []
    for n in range(2, args.nmax + 1):
        rows += hstar.uniform_conjecture_rows(n, args.rmax)
    violation = any(not rep["hstarUnimodal"]
                    or rep.get("ehrhartCoeffsPositive") is False
                    for rep in rows)
    if args.csv:
        print("n,r,hstarUnimodal,ehrhartCoeffsPositive")
        for rep in rows:
            print(f"{rep['n']},{rep['r']},{rep['hstarUnimodal']},"
                  f"{rep.get('ehrhartCoeffsPositive', '')}")
    else:
        print(json.dumps({"rows": rows, "violation": violation}))
    return EXIT_CONJECTURE if violation else EXIT_OK


@functools.cache
def build_parser():
    """The command-line parser, built once per process on first use
    and shared by every later `main` call; parsing leaves it
    unchanged, and each command looks its pipeline up when it runs."""
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
    except (ValidationError, OSError, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        # an invalid document, or one that could not be read as JSON
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
