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
from .rings import PrimeCtx


def _emit(out: list, as_json: bool, payload: dict) -> str:
    if as_json:
        return json.dumps(payload, indent=2, sort_keys=True)
    return "\n".join(out)


def _load_group(table: Optional[str], spec) -> tuple:
    """(display name, FiniteGroup) from the table file if one is named, else
    from the family spec tokens."""
    if table:
        return f"table:{table}", parse_group_table(Path(table).read_text())
    return family_from_tokens(spec)


def cmd_check(args) -> int:
    status = 0
    reports = []
    for path in args.files:
        t0 = time.perf_counter()
        try:
            rep = parse_representation(Path(path).read_text())
            verdict = check_lift(rep)
        except (OSError, Error) as e:
            print(f"error: {path}: {e}", file=sys.stderr)
            status = 2
            continue
        payload = {
            "command": "check",
            "file": str(path),
            "verdict": "LIFTABLE" if verdict.liftable else "NOT_LIFTABLE",
        }
        out = [
            f"# check {path}",
            f"p={rep.ctx.p} n={rep.n} generators={rep.num_gens} "
            f"relators={len(rep.presentation.relators)}",
            f"VERDICT: {payload['verdict']}",
        ]
        if verdict.liftable:
            cert = {}
            for nm, m in zip(rep.presentation.names, verdict.certificate.mats):
                cert[nm] = [list(r) for r in m.rows()]
                out.append(f"CERT: {nm} {m.n} " + " ".join(str(v) for r in cert[nm] for v in r))
            payload["certificate_mod"] = rep.ctx.p2
            payload["certificate"] = cert
            out.append("verified: certificate ok")
        else:
            refutation = [int(v) for v in verdict.refutation]
            payload["refutation"] = refutation
            cols = rep.num_gens * rep.n * rep.n
            out.append("REFUTE: " + " ".join(map(str, refutation)))
            out.append(f"system: {len(refutation)} rows, {cols} cols over F_{rep.ctx.p}")
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
    try:
        if not (args.table or args.spec):
            raise ParseError(None, "need a family spec or --table FILE")
        name, group = _load_group(args.table, args.spec)
        t0 = time.perf_counter()
        verdict = classify(group)
    except (OSError, Error) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    payload = {"command": "classify", "group": name, "order": group.order}
    out = [f"# classify {name} (order {group.order})"]
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
        out += ["WITNESS-BEGIN", payload["witness"].rstrip("\n"), "WITNESS-END"]
        if verdict.certified:
            payload["refutation"] = [int(v) for v in verdict.witness_verdict.refutation]
            out.append("REFUTE: " + " ".join(map(str, payload["refutation"])))
        else:
            out.append("warning: witness NOT refuted by the solver (it lifts); "
                       "verdict rests on the subgroup criterion alone")
    payload["elapsed_ms"] = round(1000 * (time.perf_counter() - t0), 2)
    print(_emit(out, args.json, payload))
    return 0


def cmd_theta(args) -> int:
    try:
        ctx = PrimeCtx(args.p)
        tokens = args.group.split()
        table = tokens[0] if len(tokens) == 1 and Path(tokens[0]).exists() else None
        name, group = _load_group(table, tokens)
        f = parse_algebra_element(Path(args.f_file).read_text(), group, ctx.p)
        h = parse_algebra_element(Path(args.h_file).read_text(), group, ctx.p)
        cls = theta(group, f, h)
    except (OSError, Error, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    payload = {
        "command": "theta",
        "group": name,
        "theta": "ZERO" if cls.is_zero else "NONZERO",
        "representative": [int(v) for v in cls.representative.coeffs],
    }
    out = [
        f"# theta over {name}, p={args.p}",
        f"THETA: {payload['theta']}",
        "THETA-REP: " + " ".join(map(str, payload["representative"])),
    ]
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
