"""Command-line front end.

Subcommands: construct, validate, simulate, tabulate, product, designs.
Exit codes: 0 success, 2 validation failure, 3 hypothesis or parse failure,
4 simulation decode failure.
"""

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path

from .constructions import (FAMILIES, ConstructionSpec, ParameterRow, closed_form_row,
                            construct_pda, design_table, mn_baseline)
from .designs import (certify_configuration, certify_t_design, design_from_json,
                      design_to_json, from_reference)
from .pda import (InvalidPdaError, Pda, PdaFormatError, format_pda, parse_pda,
                  pda_from_json, pda_to_json, scheme_parameters, validate_pda)
from .sim import verify_scheme
from .triples import ConditionError, direct_product

OK, FAIL_VALIDATE, FAIL_PARSE, FAIL_DECODE = 0, 2, 3, 4


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which collides with "validation failure"
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit_(FAIL_PARSE, f"{self.prog}: error: {message}")


class SystemExit_(Exception):
    def __init__(self, code, message=""):
        self.code = code
        self.message = message
        super().__init__(message)


def _read_pda(path: str) -> Pda:
    try:
        text = Path(path).read_text(encoding="utf-8")
        obj = json.loads(text) if text.lstrip().startswith("{") else None
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or JSON too deep
        raise PdaFormatError(f"{path}: {exc}") from None
    return parse_pda(text) if obj is None else pda_from_json(obj)


def _write_pda(p: Pda, out: str | None, as_json: bool, provenance: dict | None = None):
    if as_json:
        payload = json.dumps(pda_to_json(p, provenance), indent=2) + "\n"
    else:
        payload = format_pda(p)
    if out:
        Path(out).write_text(payload)
    else:
        sys.stdout.write(payload)


def _fmt(x) -> str:
    return "-" if x is None else str(x)


ROW_FIELDS = ("family", "params", "set", "K", "F", "Q", "S",
              "M/N", "R", "R*", "R/R*", "F*(MN)", "admissible")


def _row_cells(row: ParameterRow) -> list[str]:
    return [row.family, row.label, str(row.orientation), str(row.k), str(row.f),
            str(row.q), str(row.s), str(row.mn), str(row.rate), _fmt(row.r_star),
            _fmt(row.ratio), _fmt(row.f_mn), "yes" if row.admissible else f"no ({row.note})"]


def _print_rows(rows, fmt: str):
    table = [list(ROW_FIELDS)] + [_row_cells(r) for r in rows]
    if fmt == "csv":
        w = csv.writer(sys.stdout)
        w.writerows(table)
        return
    widths = [max(len(r[i]) for r in table) for i in range(len(ROW_FIELDS))]
    for r in table:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def _row_summary(row: ParameterRow) -> str:
    """The row's cells as name=value, the params bare, admissible left out."""
    return " ".join(cell if name == "params" else f"{name}={cell}"
                    for name, cell in zip(ROW_FIELDS[:-1], _row_cells(row)))


def _spec_from_args(args) -> ConstructionSpec:
    return ConstructionSpec(
        family=args.family, orientation=args.set,
        q=args.q, k=args.k, m=args.m, t=args.t,
        design=args.design, t0=args.t0, t1=args.t1, t2=args.t2)


def cmd_construct(args) -> int:
    spec = _spec_from_args(args)
    row = closed_form_row(spec)
    if not row.admissible:
        raise SystemExit_(FAIL_PARSE, f"inadmissible orientation {spec.orientation}: {row.note}")
    stats = {} if args.stats else None
    p = construct_pda(spec, stats=stats)
    if (p.k, p.f, p.q, p.s) != (row.k, row.f, row.q, row.s):
        raise AssertionError("constructed array disagrees with its closed form")
    provenance = {"family": spec.family, "orientation": spec.orientation,
                  "parameters": spec.label()}
    summary = sys.stdout if args.out else sys.stderr
    print(_row_summary(row), file=summary)
    _write_pda(p, args.out, args.json, provenance)
    _print_stats(stats)
    return OK


def _print_stats(stats: dict | None) -> None:
    """The stats dict, when asked for, as one JSON line on stderr."""
    if stats is not None:
        print(json.dumps(stats), file=sys.stderr)


def cmd_validate(args) -> int:
    p = _read_pda(args.path)
    stats = {} if args.stats else None
    rep = validate_pda(p, stats)
    if args.json:
        print(json.dumps({"ok": rep.ok, "condition": rep.condition, "detail": rep.detail,
                          "K": p.k, "F": p.f, "Q": p.q, "S": p.s}))
    elif rep.ok:
        print(f"OK: valid PDA with K={p.k} F={p.f} Q={p.q} S={p.s}")
    else:
        print(f"{rep.condition} violated: {rep.detail}")
    _print_stats(stats)
    return OK if rep.ok else FAIL_VALIDATE


def cmd_simulate(args) -> int:
    p = _read_pda(args.path)
    n_files = min(p.k, 4) if args.files is None else args.files
    stats = {} if args.stats else None
    report = verify_scheme(p, n_files, mode=args.mode, samples=args.samples,
                           seed=args.seed, packet_size=args.packet_size, stats=stats)
    print(json.dumps(report.to_json(), indent=2))
    _print_stats(stats)
    return OK if report.ok else FAIL_DECODE


def cmd_product(args) -> int:
    stats = {} if args.stats else None
    prod = direct_product(_read_pda(args.a), _read_pda(args.b), stats)
    _, _, mn, rate = scheme_parameters(prod)
    r_star, _ = mn_baseline(prod.k, mn)
    summary = sys.stdout if args.out else sys.stderr
    print(f"product K={prod.k} F={prod.f} Q={prod.q} S={prod.s} "
          f"M/N={mn} R={rate} R*={r_star} R/R*={rate / r_star}", file=summary)
    _write_pda(prod, args.out, args.json,
               {"family": "product", "parameters": f"{args.a} x {args.b}"})
    _print_stats(stats)
    return OK


def _parse_span(text: str) -> range:
    lo, sep, hi = text.partition("..")
    ends = (lo, hi) if sep else (lo, lo)
    if not all(x.isascii() and x.isdigit() for x in ends):  # int() takes "+3", "3_0", "٣"
        raise SystemExit_(FAIL_PARSE, f"bad range {text!r}; want N or A..B")
    return range(int(ends[0]), int(ends[1]) + 1)


def cmd_tabulate(args) -> int:
    rows = []
    if args.family == "pg":
        if args.q is None or args.k is None:
            raise SystemExit_(FAIL_PARSE, "tabulate pg needs --q and --k")
        for k in _parse_span(args.k):
            for m in range(1, k):
                for t in range(1, k - m + 1):
                    for o in (1, 2, 3):
                        rows.append(closed_form_row(ConstructionSpec(
                            "pg", o, q=args.q, k=k, m=m, t=t)))
        if not rows:
            raise SystemExit_(FAIL_PARSE, f"no admissible parameter choices for pg "
                              f"with --k {args.k}: the span holds no k >= 2")
    else:
        if args.design is None:
            raise SystemExit_(FAIL_PARSE, f"tabulate {args.family} needs --design")
        rows = design_table(args.family, args.design)
        if not rows:
            raise SystemExit_(FAIL_PARSE,
                              f"no admissible parameter choices for {args.family} "
                              f"on design {args.design}")
    _print_rows(rows, args.format)
    return OK


def cmd_designs(args) -> int:
    if args.action == "show":
        print(json.dumps(design_to_json(from_reference(args.ref)), indent=2))
        return OK
    # certify: a JSON file path or a reference
    path = Path(args.ref)
    if path.exists():
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or JSON too deep
            raise SystemExit_(FAIL_PARSE, f"parse error: {path}: {exc}") from None
        design = design_from_json(obj)
    else:
        design = from_reference(args.ref)
    checked = []
    if design.t_params:
        t, v, k, lam = design.t_params
        cert = certify_t_design(design, t, v, k, lam)
        checked.append((f"{t}-({v},{k},{lam}) design", cert))
    if design.config_params:
        v, r, b, k = design.config_params
        cert = certify_configuration(design, v, r, b, k)
        checked.append((f"({v}_{r},{b}_{k}) configuration", cert))
    if not checked:
        raise SystemExit_(FAIL_PARSE, "design declares no parameters to certify")
    code = OK
    for name, cert in checked:
        if cert.ok:
            print(f"OK: certified as a {name}")
        else:
            print(f"FAIL: not a {name}: {cert.condition} at {cert.witness}")
            code = FAIL_VALIDATE
    return code


@functools.cache  # built on the first main call, then shared: parse_args keeps no state
def _build_parser() -> _Parser:
    top = _Parser(prog="pdakit",
                  description="Placement delivery arrays: construct, validate, simulate.")
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", parents=[], help="build a PDA from a named family")
    c.add_argument("family", choices=FAMILIES)
    c.add_argument("--q", type=int, help="field order (pg)")
    c.add_argument("--k", type=int, help="ambient dimension (pg)")
    c.add_argument("--m", type=int, help="symbol subspace dimension (pg)")
    c.add_argument("--t", type=int, help="row subspace dimension (pg)")
    c.add_argument("--design", help="design reference (catalog name, complete:V:K, sts:V, td:K:N)")
    c.add_argument("--t0", type=int)
    c.add_argument("--t1", type=int)
    c.add_argument("--t2", type=int)
    c.add_argument("--set", type=int, default=1, choices=(1, 2, 3), help="orientation")
    c.add_argument("--out", help="write the array here instead of stdout")
    c.add_argument("--json", action="store_true", help="emit the JSON variant")
    c.add_argument("--stats", action="store_true",
                   help="print construct_pda's stage stats as one JSON line on stderr")
    c.set_defaults(fn=cmd_construct)

    v = sub.add_parser("validate", help="check a PDA file against C1-C3")
    v.add_argument("path")
    v.add_argument("--json", action="store_true")
    v.add_argument("--stats", action="store_true",
                   help="print validate_pda's stage stats as one JSON line on stderr")
    v.set_defaults(fn=cmd_validate)

    s = sub.add_parser("simulate", help="run placement/delivery/decode over demands")
    s.add_argument("path")
    s.add_argument("--files", type=int, default=None, help="library size N (default min(K,4))")
    s.add_argument("--mode", default="auto",
                   choices=("auto", "exhaustive", "sampled", "adversarial"))
    s.add_argument("--samples", type=int, default=200)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--packet-size", type=int, default=16)
    s.add_argument("--stats", action="store_true",
                   help="print verify_scheme's stats as one JSON line on stderr")
    s.set_defaults(fn=cmd_simulate)

    t = sub.add_parser("tabulate", help="closed-form parameter tables")
    t.add_argument("family", choices=FAMILIES)
    t.add_argument("--q", type=int)
    t.add_argument("--k", help="ambient dimension or range A..B (pg)")
    t.add_argument("--design")
    t.add_argument("--format", default="text", choices=("text", "csv"))
    t.set_defaults(fn=cmd_tabulate)

    p = sub.add_parser("product", help="direct product of two PDA files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.add_argument("--stats", action="store_true",
                   help="print direct_product's stats as one JSON line on stderr")
    p.set_defaults(fn=cmd_product)

    d = sub.add_parser("designs", help="show or certify designs")
    d.add_argument("action", choices=("show", "certify"))
    d.add_argument("ref", help="design reference, or (certify) a design JSON file")
    d.set_defaults(fn=cmd_designs)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit_ as exc:
        if exc.message:
            print(exc.message, file=sys.stderr)
        return exc.code
    except PdaFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return FAIL_PARSE
    except InvalidPdaError as exc:
        print(exc, file=sys.stderr)
        return FAIL_VALIDATE
    except ConditionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return FAIL_PARSE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
