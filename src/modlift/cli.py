"""Command-line front end.

Subcommands: ``check`` (decide liftability of representation files),
``classify`` (family spec or multiplication-table file), ``theta``
(obstruction class of a zero-product pair), ``reproduce`` (run every entry
of the results registry in ``modlift.reproduce``, the same checks the
acceptance suite runs).  Machine-readable lines are prefixed ``VERDICT:``,
``CERT:``, ``REFUTE:``, ``THETA:`` and are stable across runs; ``check``
reports only verdicts that ``check_lift`` has already re-checked exactly.
Exit codes are 0 for a clean run (whatever the verdicts), 1 for a reproduce
failure, 2 for input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

from . import reproduce as _reproduce
from .errors import Error
from .formats import (
    ParseError,
    family_from_tokens,
    format_representation,
    parse_algebra_element,
    parse_group_table,
    parse_representation,
)
from .classify import classify
from .obstruction import theta
from .replift import DEFAULT_BRUTE_BUDGET, brute_force_lift, check_lift
from .rings import Mat, PrimeCtx


def _print_matrix_lines(out: list, prefix: str, name: str, m: Mat):
    flat = " ".join(str(int(v)) for v in m.a.reshape(-1))
    out.append(f"{prefix} {name} {m.n} {flat}")


def _emit(out: list, as_json: bool, payload: dict) -> str:
    if as_json:
        return json.dumps(payload, indent=2, sort_keys=True)
    return "\n".join(out)


def cmd_check(args) -> int:
    status = 0
    reports = []
    for path in args.files:
        out = []
        payload = {"command": "check", "file": str(path)}
        t0 = time.perf_counter()
        try:
            rep = parse_representation(Path(path).read_text())
            verdict = check_lift(rep)
        except (OSError, Error) as e:
            print(f"error: {path}: {e}", file=sys.stderr)
            status = 2
            continue
        out.append(f"# check {path}")
        out.append(
            f"p={rep.ctx.p} n={rep.n} generators={rep.num_gens} "
            f"relators={len(rep.presentation.relators)}"
        )
        if verdict.liftable:
            out.append("VERDICT: LIFTABLE")
            payload["verdict"] = "LIFTABLE"
            cert = {}
            for nm, m in zip(rep.presentation.names, verdict.certificate.mats):
                _print_matrix_lines(out, "CERT:", nm, m)
                cert[nm] = [list(r) for r in m.rows()]
            payload["certificate_mod"] = rep.ctx.p2
            payload["certificate"] = cert
            out.append("verified: certificate ok")
        else:
            out.append("VERDICT: NOT_LIFTABLE")
            payload["verdict"] = "NOT_LIFTABLE"
            flat = " ".join(str(int(v)) for v in verdict.refutation)
            out.append(f"REFUTE: {flat}")
            payload["refutation"] = [int(v) for v in verdict.refutation]
            cols = rep.num_gens * rep.n * rep.n
            out.append(f"system: {len(verdict.refutation)} rows, {cols} cols over F_{rep.ctx.p}")
            out.append("verified: refutation ok")
        # check_lift re-checks the certificate or refutation exactly and
        # raises if that fails, so a verdict that reaches here is verified
        payload["verified"] = True
        if args.oracle:
            try:
                bv = brute_force_lift(rep, budget=args.max_brute)
                agree = bv.liftable == verdict.liftable
                out.append(f"oracle: {'agrees' if agree else 'DISAGREES'}")
                payload["oracle_agrees"] = agree
                if not agree:
                    status = max(status, 1)
            except Error as e:
                out.append(f"oracle: skipped ({e})")
                payload["oracle_agrees"] = None
        payload["elapsed_ms"] = round(1000 * (time.perf_counter() - t0), 2)
        out.append(f"elapsed: {payload['elapsed_ms']} ms")
        reports.append(_emit(out, args.json, payload))
    # buffered per file so concurrent use keeps reports atomic
    for r in reports:
        print(r)
    return status


def cmd_classify(args) -> int:
    payload = {"command": "classify"}
    out = []
    try:
        if args.table:
            group = parse_group_table(Path(args.table).read_text())
            name = f"table:{args.table}"
        else:
            if not args.spec:
                raise ParseError(None, "need a family spec or --table FILE")
            name, group = family_from_tokens(args.spec)
    except (OSError, Error) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    payload["group"] = name
    payload["order"] = group.order
    out.append(f"# classify {name} (order {group.order})")
    t0 = time.perf_counter()
    try:
        verdict = classify(group)
    except Error as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if verdict.liftable:
        out.append(f"VERDICT: LIFTABLE ({verdict.tag})")
        payload["verdict"] = "LIFTABLE"
        payload["tag"] = verdict.tag
    else:
        out.append(f"VERDICT: NOT_LIFTABLE ({verdict.bad.kind})")
        payload["verdict"] = "NOT_LIFTABLE"
        payload["bad_subgroup"] = {
            "kind": verdict.bad.kind,
            "prime": verdict.bad.prime,
            "generators": list(verdict.bad.gens),
            "elements": list(verdict.bad.elements),
        }
        w = verdict.witness
        out.append(
            f"witness: {w.n}-dimensional representation over F_{w.ctx.p} "
            f"(level: {verdict.witness_level}, solver-certified: {verdict.certified})"
        )
        payload["witness_level"] = verdict.witness_level
        payload["witness_certified"] = verdict.certified
        payload["witness"] = format_representation(w)
        out.append("WITNESS-BEGIN")
        out.append(format_representation(w).rstrip("\n"))
        out.append("WITNESS-END")
        if verdict.certified:
            flat = " ".join(str(int(v)) for v in verdict.witness_verdict.refutation)
            out.append(f"REFUTE: {flat}")
            payload["refutation"] = [int(v) for v in verdict.witness_verdict.refutation]
        else:
            out.append("warning: witness NOT refuted by the solver (it lifts); "
                       "verdict rests on the subgroup criterion alone")
    payload["elapsed_ms"] = round(1000 * (time.perf_counter() - t0), 2)
    print(_emit(out, args.json, payload))
    return 0


def cmd_theta(args) -> int:
    payload = {"command": "theta"}
    out = []
    try:
        ctx = PrimeCtx(args.p)
        tokens = args.group.split()
        if len(tokens) == 1 and Path(tokens[0]).exists():
            group = parse_group_table(Path(tokens[0]).read_text())
            name = f"table:{tokens[0]}"
        else:
            name, group = family_from_tokens(tokens)
        f = parse_algebra_element(Path(args.f_file).read_text(), group, ctx.p)
        h = parse_algebra_element(Path(args.h_file).read_text(), group, ctx.p)
        cls = theta(group, f, h)
    except (OSError, Error, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    payload["group"] = name
    out.append(f"# theta over {name}, p={args.p}")
    if cls.is_zero:
        out.append("THETA: ZERO")
        payload["theta"] = "ZERO"
    else:
        out.append("THETA: NONZERO")
        payload["theta"] = "NONZERO"
    coeffs = " ".join(str(int(v)) for v in cls.representative.coeffs)
    out.append(f"THETA-REP: {coeffs}")
    payload["representative"] = [int(v) for v in cls.representative.coeffs]
    print(_emit(out, args.json, payload))
    return 0


def cmd_reproduce(args) -> int:
    rows, all_pass = _reproduce.run()
    if args.json:
        payload = {
            "command": "reproduce",
            "items": [
                {"item": name, "status": "PASS" if ok else "FAIL", "detail": detail}
                for name, ok, detail in rows
            ],
            "status": "PASS" if all_pass else "FAIL",
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        width = max(len(name) for name, _, _ in rows)
        for name, ok, detail in rows:
            print(f"[{'PASS' if ok else 'FAIL'}] {name:<{width}}  {detail}")
        print(f"overall: {'PASS' if all_pass else 'FAIL'}")
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="modlift",
        description="Decide liftability of mod-p representations to Z/p^2, "
        "with machine-checkable certificates.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check representation files")
    p_check.add_argument("files", nargs="+", help="representation files")
    p_check.add_argument("--json", action="store_true")
    p_check.add_argument("--oracle", action="store_true",
                         help="also run the brute-force oracle and compare")
    p_check.add_argument("--max-brute", type=int, default=DEFAULT_BRUTE_BUDGET,
                         help="brute-force oracle budget (default 2^20)")
    p_check.set_defaults(fn=cmd_check)

    p_cls = sub.add_parser("classify", help="classify a group (family spec or table)")
    p_cls.add_argument("spec", nargs="*",
                       help="family spec: C n | Q 2^n | D 2^n | CxC a b | C3xC3 | C3semi 2^n")
    p_cls.add_argument("--table", help="multiplication table file instead of a spec")
    p_cls.add_argument("--json", action="store_true")
    p_cls.set_defaults(fn=cmd_classify)

    p_th = sub.add_parser("theta", help="obstruction class of a zero-product pair")
    p_th.add_argument("group", help="family spec in one argument (e.g. 'C 9') or table file")
    p_th.add_argument("f_file")
    p_th.add_argument("h_file")
    p_th.add_argument("-p", type=int, required=True, help="the prime")
    p_th.add_argument("--json", action="store_true")
    p_th.set_defaults(fn=cmd_theta)

    p_rep = sub.add_parser("reproduce", help="run the results registry")
    p_rep.add_argument("--json", action="store_true")
    p_rep.set_defaults(fn=cmd_reproduce)
    return ap


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


def console_main():  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
