"""Command-line front end: validate | zeta | count | orbits | spectrum | verify.

Exit codes: 0 success or verification pass, 1 input/validation error,
2 verification failure (a well-formed run whose certified check fails).
Runs are byte-stable: floats print with 17 significant digits, big
integers as decimal strings, and every collection is emitted in a fixed
order.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys

from .bumps import BumpFunction, combine_bumps
from .counting import build_count_table, fixed_point_groups
from .errors import ComputationError, InputError, OutputTooLarge, WeilflowError
from .exterior import ZETA_G_CAP, build_pj_family, zeros_in_window
from .formula import COUNT_CAP, verify
from .weil import check_ordinary, frobenius_model, parse_weil_datum

SPECTRUM_ZERO_CAP = 1_000_000  # zeros spectrum lists at most (~0.33 KiB of peak memory each)


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ComputationError("non-finite value reached the reporting layer: %r" % x)
    return "%.16e" % x


def _dumps(x, indent: int = 0) -> str:
    """Deterministic JSON: fixed float format, insertion-ordered keys."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, str):
        return json.dumps(x)
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return _fmt_float(x)
    if isinstance(x, complex):
        return "[%s, %s]" % (_fmt_float(x.real), _fmt_float(x.imag))
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        items = [_dumps(v, indent + 1) for v in x]
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        items = ["%s: %s" % (json.dumps(str(k)), _dumps(v, indent + 1)) for k, v in x.items()]
        return "{\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "}"
    raise TypeError("unserializable %r" % type(x))


def _refuse_long_integers(what: str, q: int, e: int, m: int) -> None:
    """Refuse, before any work, output whose integers (1 + q^{e/2})^m bounds
    when that bound has more decimal digits than Python converts to str
    (sys.get_int_max_str_digits, 0 for no limit)."""
    limit = sys.get_int_max_str_digits()
    digits = math.floor(m * (e / 2 * math.log10(q) + math.log10(1 + q ** (-e / 2)))) + 1
    if limit and digits > limit:
        raise OutputTooLarge("%s: its integers are at most (1 + q^(%d/2))^%d, of %d digits, past "
                             "Python's int-to-str limit of %d digits" % (what, e, m, digits, limit))


def _parse_alpha(raw: str) -> BumpFunction:
    fields = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InputError("bad --alpha component %r, want c=..,w=..[,A=..]" % part)
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in ("c", "w", "A"):
            raise InputError("unknown --alpha key %r (allowed: c, w, A)" % key)
        if key in fields:
            raise InputError("duplicate --alpha key %r in %r" % (key, raw))
        try:
            fields[key] = float(val)
        except ValueError:
            raise InputError("non-numeric --alpha value %r for %r" % (val, key))
    if "c" not in fields or "w" not in fields:
        raise InputError("--alpha needs at least c= and w= (got %r)" % raw)
    return BumpFunction(center=fields["c"], width=fields["w"], amplitude=fields.get("A", 1.0))


def _load_datum(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer past Python's digit limit
        raise InputError("%s is not valid JSON: %s" % (path, exc))
    return parse_weil_datum(doc)


def _csv_rows(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


# per-subcommand handlers: each returns (exit_code, text) per format


def _cmd_validate(args) -> tuple[int, str]:
    w = _load_datum(args.input)
    verdict = check_ordinary(w)
    model = frobenius_model(w)
    doc = {
        "input": w.to_document(),
        "p": w.p,
        "f": w.f,
        "ordinary": {
            "is_ordinary": verdict.is_ordinary,
            "middle_coefficient": str(verdict.middle_coefficient),
            "p_valuation": verdict.p_valuation,
        },
        "root_precision": model.precision,
        "functional_equation_ok": True,  # parse raises on a violation
    }
    if args.format == "json":
        return 0, _dumps(doc)
    if args.format == "csv":
        rows = [["field", "value"],
                ["q", w.q], ["g", w.g], ["p", w.p], ["f", w.f],
                ["ordinary", verdict.is_ordinary],
                ["middle_coefficient", str(verdict.middle_coefficient)],
                ["p_valuation", verdict.p_valuation],
                ["root_precision", _fmt_float(model.precision)]]
        return 0, _csv_rows(rows)
    lines = [
        "datum: q=%d g=%d label=%s" % (w.q, w.g, w.label or "-"),
        "coefficients: %s" % (list(w.coeffs),),
        "prime power: p=%d f=%d" % (w.p, w.f),
        "ordinary: %s (middle coefficient %d, p-valuation %s)"
        % (verdict.is_ordinary, verdict.middle_coefficient, verdict.p_valuation),
        "root angle radius: %s" % _fmt_float(model.precision),
        "ok",
    ]
    return 0, "\n".join(lines)


def _cmd_zeta(args) -> tuple[int, str]:
    w = _load_datum(args.input)
    if w.g <= ZETA_G_CAP:  # larger g is build_pj_family's DimensionTooLarge
        # |coefficient k of P_j| <= e_k(|lambda_S|) <= (1 + q^{j/2})^C(2g, j)
        for j in range(2 * w.g + 1):
            _refuse_long_integers("zeta P_%d" % j, w.q, j, math.comb(2 * w.g, j))
    model = frobenius_model(w)
    fam = build_pj_family(model)
    doc = {
        "q": w.q,
        "g": w.g,
        "P": [[str(c) for c in poly] for poly in fam.polys],
        "roots": [complex(r) for r in model.roots],
        "products_by_j": [[complex(z) for z in level] for level in fam.products],
    }
    if args.format == "json":
        return 0, _dumps(doc)
    if args.format == "csv":
        rows = [["j", "coefficients..."]]
        for j, poly in enumerate(fam.polys):
            rows.append([j] + [str(c) for c in poly])
        return 0, _csv_rows(rows)
    lines = ["zeta factors for q=%d g=%d" % (w.q, w.g)]
    for j, poly in enumerate(fam.polys):
        lines.append("P_%d: %s" % (j, list(poly)))
    return 0, "\n".join(lines)


def _count_tables(args, snf: bool):
    """Count table for --max, and the Smith forms of F^n - I only when snf
    is set: they cost ~90 % of the work at g = 4."""
    w = _load_datum(args.input)
    if args.max < 1:
        raise InputError("--max must be >= 1, got %d" % args.max)
    if args.max > COUNT_CAP:
        raise InputError("--max %d exceeds the exact-arithmetic cap %d" % (args.max, COUNT_CAP))
    # N_n = |prod (1 - mu_i^n)|, largest at n = --max, bounds a_d, b_nu and each Smith divisor
    _refuse_long_integers("%s --max %d" % (args.command, args.max), w.q, args.max, 2 * w.g)
    model = frobenius_model(w)
    ct = build_count_table(model, args.max)
    groups = fixed_point_groups(model, args.max) if snf else None
    return w, ct, groups


def _count_doc(w, ct, groups) -> str:
    n_max = ct.n_max
    logq = math.log(w.q)
    return _dumps({
        "q": w.q,
        "g": w.g,
        "N": {str(n): str(ct.counts[n - 1]) for n in range(1, n_max + 1)},
        "a": {str(d): str(ct.closed_points[d - 1]) for d in range(1, n_max + 1)},
        "orbits": {
            str(nu): {"count": str(ct.closed_points[nu - 1]), "length": nu * logq}
            for nu in range(1, n_max + 1)
        },
        "snf": {str(n): [str(d) for d in divisors] for n, divisors in enumerate(groups, start=1)},
    })


def _cmd_count(args) -> tuple[int, str]:
    w, ct, groups = _count_tables(args, snf=True)
    if args.format == "json":
        return 0, _count_doc(w, ct, groups)
    if args.format == "csv":
        rows = [["n", "N_n", "a_n", "snf"]]
        for n in range(1, args.max + 1):
            rows.append([n, str(ct.counts[n - 1]), str(ct.closed_points[n - 1]),
                         ";".join(str(d) for d in groups[n - 1])])
        return 0, _csv_rows(rows)
    lines = ["point counts for q=%d g=%d" % (w.q, w.g)]
    for n in range(1, args.max + 1):
        lines.append("n=%-3d N=%-24d a=%-24d snf=%s"
                     % (n, ct.counts[n - 1], ct.closed_points[n - 1],
                        list(groups[n - 1])))
    return 0, "\n".join(lines)


def _cmd_orbits(args) -> tuple[int, str]:
    # text and csv print no Smith forms, so only json builds them
    w, ct, groups = _count_tables(args, snf=args.format == "json")
    if args.format == "json":
        return 0, _count_doc(w, ct, groups)
    # b_nu = a_nu: a primitive orbit of length nu log q is a closed point of degree nu
    logq = math.log(w.q)
    if args.format == "csv":
        rows = [["nu", "b_nu", "length"]]
        for nu in range(1, args.max + 1):
            rows.append([nu, str(ct.closed_points[nu - 1]), _fmt_float(nu * logq)])
        return 0, _csv_rows(rows)
    lines = ["primitive orbits for q=%d g=%d (length unit log q = %.12f)" % (w.q, w.g, logq)]
    for nu in range(1, args.max + 1):
        lines.append("nu=%-3d b=%-24d length=%.12f"
                     % (nu, ct.closed_points[nu - 1], nu * logq))
    return 0, "\n".join(lines)


# one zero of the spectrum JSON, as _dumps lays out {"j", "subset", "re", "im"}
_ZERO_JSON = '    {\n      "j": %d,\n      "subset": %d,\n      "re": %s,\n      "im": %s\n    }'


def _cmd_spectrum(args) -> tuple[int, str]:
    w = _load_datum(args.input)
    if not 0 <= args.window < math.inf:
        raise InputError("--window must be finite and >= 0, got %r" % args.window)
    js = [args.j] if args.j is not None else list(range(2 * w.g + 1))
    for j in js:
        if not 0 <= j <= 2 * w.g:
            raise InputError("--j must lie in 0..%d, got %d" % (2 * w.g, j))
    period = 2 * math.pi / math.log(w.q)
    # each ladder holds at most 2 window / period + 1 zeros of the window; with
    # sum_j C(2g, j) = 4^g ladders, every window is refused from g = 10 on
    bound = (2 * args.window / period + 1) * sum(math.comb(2 * w.g, j) for j in js)
    if bound > SPECTRUM_ZERO_CAP:
        raise InputError("--window %r holds up to %.4g zeros, the cap is %d"
                         % (args.window, bound, SPECTRUM_ZERO_CAP))
    model = frobenius_model(w)
    zeros = ((j, idx, rho.real, rho.imag)
             for j in js for idx, rho in zeros_in_window(model, j, args.window))
    if args.format == "json":
        # "zeros" is the last key: its rows go where _dumps put the []
        doc = {"q": w.q, "g": w.g, "period": period, "window": args.window, "zeros": []}
        head = _dumps(doc)[:-len("[]\n}")]
        body = ",\n".join(_ZERO_JSON % (j, idx, _fmt_float(re), _fmt_float(im))
                          for j, idx, re, im in zeros)
        return 0, "".join((head, "[\n", body, "\n  ]\n}") if body else (head, "[]\n}"))
    if args.format == "csv":
        return 0, _csv_rows(itertools.chain([["j", "subset", "re", "im"]], (
            (j, idx, _fmt_float(re), _fmt_float(im)) for j, idx, re, im in zeros)))
    lines = ["zeros with |Im| <= %.6f (vertical period %.12f)" % (args.window, period)]
    lines.extend("j=%d S#%-3d rho = %+.12f %+.12f i" % z for z in zeros)
    lines.append("total: %d" % (len(lines) - 1))
    return 0, "\n".join(lines)


def _cmd_verify(args) -> tuple[int, str]:
    w = _load_datum(args.input)
    if not args.alpha:
        raise InputError("verify needs at least one --alpha c=..,w=..[,A=..]")
    tf = combine_bumps([_parse_alpha(raw) for raw in args.alpha])
    report = verify(
        w, tf,
        tol=args.tol,
        trunc_budget=args.trunc_budget,
        allow_non_ordinary=args.allow_non_ordinary,
    )
    sp = report.spectral
    geo = report.geometric
    doc = {
        "input": w.to_document(),
        "ordinary": report.ordinarity_is_ordinary,
        "spectral": {
            "per_j": [
                {
                    "j": t.j,
                    "T": t.value,
                    "nu_max": t.nu_max,
                    "tail_bound": t.tail_bound,
                    "quad_error": t.quad_error,
                    "zero_count": t.zero_count,
                }
                for t in sp.per_j
            ],
            "zero_sum": sp.alternating_full,
            "zero_sum_partial_j_ge_1": sp.eq1_partial,
            "closed_form": sp.closed_form,
            "tail_bound": sp.tail_bound,
            "quad_error": sp.quad_error,
            "zero_count": sp.zero_count,
        },
        "geometric": {
            "cells": [
                {
                    "k": c.k, "d": c.d, "t": c.t, "points": str(c.points),
                    "weight": c.weight, "alpha": c.alpha, "contribution": c.contribution,
                }
                for c in geo.cells
            ],
            "positive_part": geo.positive_part,
            "negative_part": geo.negative_part,
            "total": geo.total,
        },
        "residuals": report.residuals,
        "tolerance": report.tolerance,
        "trunc_budget": report.trunc_budget,
        "certified_budget": report.certified_budget,
        "allowance": report.allowance,
        "pass": report.passed,
        "note": report.j_range_note,
    }
    code = 0 if report.passed else 2
    if args.format == "json":
        return code, _dumps(doc)
    if args.format == "csv":
        rows = [["metric", "value"],
                ["zero_sum", _fmt_float(sp.alternating_full)],
                ["closed_form", _fmt_float(sp.closed_form)],
                ["geometric", _fmt_float(geo.total)]]
        for key, val in report.residuals.items():
            rows.append([key, _fmt_float(val)])
        rows.append(["certified_budget", _fmt_float(report.certified_budget)])
        rows.append(["allowance", _fmt_float(report.allowance)])
        rows.append(["pass", report.passed])
        return code, _csv_rows(rows)
    lines = [
        "verify: q=%d g=%d (%s)" % (w.q, w.g, w.label or "unlabeled"),
        "zero sum  (j=0..2g): %s" % _fmt_float(sp.alternating_full),
        "          (j>=1)   : %s" % _fmt_float(sp.eq1_partial),
        "closed form        : %s" % _fmt_float(sp.closed_form),
        "geometric side     : %s" % _fmt_float(geo.total),
    ]
    for key, val in report.residuals.items():
        lines.append("residual %-26s %- .3e" % (key, val))
    lines.append("certified budget %.3e, allowance %.3e" %
                 (report.certified_budget, report.allowance))
    lines.append("zeros evaluated: %d" % sp.zero_count)
    lines.append("PASS" if report.passed else "FAIL")
    return code, "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags by default, which collides
    # with "2 = verification failure"; route through InputError instead
    def error(self, message):
        raise InputError(message)


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="weilflow",
                  description="Explicit-formula verification for zeta functions "
                              "of ordinary abelian varieties over finite fields.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, needs_max=False, needs_window=False, needs_verify=False):
        p.add_argument("--input", required=True, help="JSON file with q/g/weil_poly (or q/trace)")
        p.add_argument("--format", choices=("json", "text", "csv"), default="text")
        if needs_max:
            p.add_argument("--max", type=int, default=10, help="largest index n (default 10)")
        if needs_window:
            p.add_argument("--window", type=float, default=10.0,
                           help="list zeros with |Im rho| <= window (default 10)")
            p.add_argument("--j", type=int, default=None, help="restrict to one exterior power")
        if needs_verify:
            p.add_argument("--alpha", action="append", default=[],
                           help="bump c=<float>,w=<float>[,A=<float>]; repeat to sum")
            p.add_argument("--tol", type=float, default=1e-6,
                           help="relative residual tolerance (default 1e-6)")
            p.add_argument("--trunc-budget", type=float, default=0.25,
                           help="certified zero-sum truncation budget (default 0.25)")
            p.add_argument("--allow-non-ordinary", action="store_true",
                           help="verify even when p divides the middle coefficient")

    common(sub.add_parser("validate", help="parse a datum and run the structural checks"))
    common(sub.add_parser("zeta", help="emit the factor polynomials P_j and root data"))
    common(sub.add_parser("count", help="point counts N_n, closed points a_d, fixed-point groups"),
           needs_max=True)
    common(sub.add_parser("orbits", help="primitive orbit counts and lengths"), needs_max=True)
    common(sub.add_parser("spectrum", help="enumerate zeta zeros in a vertical window"),
           needs_window=True)
    common(sub.add_parser("verify", help="certified three-way explicit-formula check"),
           needs_verify=True)
    return top


_HANDLERS = {
    "validate": _cmd_validate,
    "zeta": _cmd_zeta,
    "count": _cmd_count,
    "orbits": _cmd_orbits,
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code, text = _HANDLERS[args.command](args)
    except InputError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    except ComputationError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2
    except WeilflowError as exc:  # pragma: no cover - base class safety net
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
