"""Command-line interface.

Subcommands mirror the library: normalize, equiv, hcob, report, chow,
moduli, threshold, types, monad-check, line, scan, verify.  Chern pairs are
written "c1,c2" with no whitespace; negative entries need no escaping.
Every subcommand accepts --json and then emits a single JSON document with
a top-level {"schema": "1"} marker.  Output is deterministic byte for byte.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 internal
consistency failure.  The environment variable PLANEBUNDLES_WIDTH sets a
minimum column width for text tables.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .chern import ChernPair, MonadSpec, monad_cohomology_chern
from .chow import PBRing
from .classify import (
    NO,
    UNKNOWN,
    YES,
    Verdict,
    complex_report,
    h_cobordant,
    split_twist,
    weak_equivalent,
)
from .cubic import cubic_discriminant_standard, picard_cubic, picard_discriminant
from .errors import ConsistencyError, DomainError
from .moduli import (
    codim_exceeds_dim,
    gamma,
    moduli_dim,
    non_cobordant_types,
    q1,
    q_values,
    stromme_threshold,
)
from .orbits import discriminant, normalize, orbit_witness
from .oracles import (
    iso_equivalence_sweep,
    orbit_agreement_sweep,
    split_root_agreement_sweep,
)
from .ruled import generic_hirzebruch, signed_hirzebruch

SCHEMA = "1"
CONVENTION = "c1 in {0,-1}"
GRID_CELL_CAP = 10**6

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_VALUE_FLAGS = ("--pair", "--left", "--right", "--cube", "--range")


def _glue_negative_values(argv: list) -> list:
    """Join flag and value when the value starts with a minus sign.

    argparse reads "-5,6" as an option string, so "--pair -5,6" must become
    "--pair=-5,6" before parsing.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and re.match(r"^-\d", argv[i + 1]):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _pair_arg(text: str) -> ChernPair:
    return ChernPair.from_text(text)


def _int_pair_arg(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'a,b', got {text!r}")
    return (int(parts[0]), int(parts[1]))


def _range_arg(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"expected 'c1min:c1max:c2min:c2max', got {text!r}")
    return tuple(int(part) for part in parts)


def _min_width() -> int:
    raw = os.environ.get("PLANEBUNDLES_WIDTH", "")
    if not raw:
        return 0
    try:
        return max(0, int(raw))
    except ValueError:
        raise DomainError(f"PLANEBUNDLES_WIDTH must be an integer, got {raw!r}") from None


def _table(headers: list, rows: list) -> str:
    floor = _min_width()
    widths = []
    for i, head in enumerate(headers):
        cell_max = max((len(row[i]) for row in rows), default=0)
        widths.append(max(len(head), cell_max, floor))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _verdict_line(v: Verdict, detail: str) -> str:
    return f"{v.value.upper()} ({v.reason}): {detail}"


def _cmd_normalize(args) -> int:
    nf = normalize(args.pair)
    if args.json:
        _print_json(
            {
                "schema": SCHEMA,
                "command": "normalize",
                "pair": args.pair.to_json(),
                "rep": nf.rep.to_json(),
                "l_used": nf.l_used,
                "convention": CONVENTION,
            }
        )
    else:
        print(f"rep = {nf.rep}  twist l = {nf.l_used}  (convention: {CONVENTION})")
    return EXIT_OK


def _equiv_detail(v: Verdict, left: ChernPair, right: ChernPair) -> str:
    if v.value == YES:
        return f"twist l={v.witness}"
    if (left.c1 - right.c1) % 2 != 0:
        return f"c1 parity differs ({left.c1} vs {right.c1})"
    return f"discriminant {discriminant(left)} != {discriminant(right)}"


def _cmd_equiv(args) -> int:
    v = weak_equivalent(args.left, args.right)
    if args.json:
        _print_json(
            {
                "schema": SCHEMA,
                "command": "equiv",
                "left": args.left.to_json(),
                "right": args.right.to_json(),
                "verdict": v.to_json(),
                "witness_twist": v.witness,
            }
        )
    else:
        print(_verdict_line(v, _equiv_detail(v, args.left, args.right)))
    return EXIT_OK


def _hcob_detail(v: Verdict) -> str:
    if v.value == YES:
        return f"weakly equivalent; split root d={v.witness}"
    if v.value == NO:
        return "not weakly equivalent"
    return "weakly equivalent; no integer d with d^2 - d*c1 + c2 = 0"


def _cmd_hcob(args) -> int:
    v = h_cobordant(args.left, args.right)
    if args.json:
        _print_json(
            {
                "schema": SCHEMA,
                "command": "hcob",
                "left": args.left.to_json(),
                "right": args.right.to_json(),
                "verdict": v.to_json(),
                "witness_twist": orbit_witness(args.left, args.right),
            }
        )
    else:
        print(_verdict_line(v, _hcob_detail(v)))
    return EXIT_OK


def _cmd_report(args) -> int:
    rep = complex_report(args.left, args.right)
    if args.json:
        _print_json(
            {
                "schema": SCHEMA,
                "command": "report",
                "left": args.left.to_json(),
                "right": args.right.to_json(),
                "relations": rep.to_json(),
                "witness_twist": orbit_witness(args.left, args.right),
            }
        )
    else:
        print(f"left {args.left}  right {args.right}")
        rows = [
            [name, v.value, v.reason, "-" if v.witness is None else str(v.witness)]
            for name, v in rep.items()
        ]
        print(_table(["relation", "verdict", "reason", "witness"], rows))
    return EXIT_OK


def _cmd_chow(args) -> int:
    ring = PBRing(args.pair)
    form = picard_cubic(args.pair)
    picard = picard_discriminant(args.pair)
    standard = cubic_discriminant_standard(form)
    if standard != -27 * picard:
        raise ConsistencyError(
            f"discriminant scales disagree at {args.pair}: {standard} != -27 * {picard}"
        )
    cube = None
    if args.cube is not None:
        from .chow import triple_self_product

        a, b = args.cube
        cube = {"a": a, "b": b, "value": triple_self_product(ring, a, b)}
    if args.json:
        _print_json(
            {
                "schema": SCHEMA,
                "command": "chow",
                "pair": args.pair.to_json(),
                "presentation": ring.presentation(),
                "cubic": form.to_json(),
                "picard_discriminant": picard,
                "standard_discriminant": standard,
                "cube": cube,
            }
        )
    else:
        print(f"ring: {ring.presentation()}")
        print(f"cubic: {form}")
        print(f"picard discriminant: {picard}")
        print(f"standard cubic discriminant: {standard} (= -27 * picard)")
        if cube is not None:
            print(f"cube at (a,b)=({cube['a']},{cube['b']}): {cube['value']}")
    return EXIT_OK


def _cmd_moduli(args) -> int:
    p = args.pair
    if args.dmax < 0:
        raise DomainError(f"dmax must be >= 0, got {args.dmax}")
    fixed_e = args.e
    convention = "as-printed" if args.q3_as_printed else "inequality"
    rows_json = []
    rows_text = []
    flagged = False
    if fixed_e is None:
        e_columns = list(range(-1, args.dmax))
        headers = ["d", "Q1", "dim"] + [f"g(e={e})" for e in e_columns]
        for d in range(args.dmax + 1):
            dim = moduli_dim(p, d)
            gammas = {}
            cells = [str(d), str(q1(p, d)), str(dim)]
            for e in e_columns:
                if e >= d:
                    cells.append("")
                    continue
                value = gamma(p, d, e)
                gammas[str(e)] = value
                if codim_exceeds_dim(p, d, e):
                    flagged = True
                    cells.append(f"{value}*")
                else:
                    cells.append(str(value))
            rows_text.append(cells)
            rows_json.append(
                {"d": d, "q1": q1(p, d), "dim": dim.to_json(), "gamma": gammas}
            )
    else:
        if fixed_e < -1:
            raise DomainError(f"e must be >= -1, got {fixed_e}")
        headers = ["d", "Q1", "dim", f"g(e={fixed_e})", "Q3", "Q4", "Q5"]
        for d in range(args.dmax + 1):
            dim = moduli_dim(p, d)
            if d > fixed_e:
                q = q_values(p, d, fixed_e, q3_as_printed=args.q3_as_printed)
                star = codim_exceeds_dim(p, d, fixed_e)
                flagged = flagged or star
                cells = [
                    str(d),
                    str(q.q1),
                    str(dim),
                    f"{q.q5}*" if star else str(q.q5),
                    str(q.q3),
                    str(q.q4),
                    str(q.q5),
                ]
                q_json = {"q1": q.q1, "q2": q.q2, "q3": q.q3, "q4": q.q4, "q5": q.q5}
            else:
                cells = [str(d), str(q1(p, d)), str(dim), "", "", "", ""]
                q_json = None
            rows_text.append(cells)
            rows_json.append({"d": d, "q1": q1(p, d), "dim": dim.to_json(), "q": q_json})
    if args.json:
        payload = {
            "schema": SCHEMA,
            "command": "moduli",
            "pair": p.to_json(),
            "dmax": args.dmax,
            "e": fixed_e,
            "q3_convention": convention,
            "rows": rows_json,
        }
        _print_json(payload)
    else:
        print(f"pair {p}  dmax {args.dmax}  (Q3 convention: {convention})")
        print(_table(headers, rows_text))
        if flagged:
            print("* gamma exceeds 3*Q1 - 1; the stratum cannot fill the moduli space")
    return EXIT_OK


def _cmd_threshold(args) -> int:
    value = stromme_threshold(args.pair)
    if args.json:
        _print_json(
            {
                "schema": SCHEMA,
                "command": "threshold",
                "pair": args.pair.to_json(),
                "threshold": value,
            }
        )
    else:
        print(f"threshold d = {value}")
    return EXIT_OK


def _cmd_types(args) -> int:
    types = non_cobordant_types(args.pair, args.count)
    threshold = stromme_threshold(args.pair)
    lower = 4 + args.pair.c1
    if args.json:
        _print_json(
            {
                "schema": SCHEMA,
                "command": "types",
                "pair": args.pair.to_json(),
                "count": args.count,
                "threshold": threshold,
                "uniqueness_lower_bound": lower,
                "types": types,
            }
        )
    else:
        listing = ", ".join(str(d) for d in types)
        print(f"types: {listing}  (threshold {threshold}, uniqueness bound {lower})")
    return EXIT_OK


def _cmd_monad_check(args) -> int:
    monad = MonadSpec(args.d, args.pair)
    result = monad_cohomology_chern(monad)
    matches = result == args.pair
    if not matches:
        raise ConsistencyError(
            f"monad cohomology produced {result} from {args.pair} at d={args.d}"
        )
    if args.json:
        _print_json(
            {
                "schema": SCHEMA,
                "command": "monad-check",
                "pair": args.pair.to_json(),
                "d": args.d,
                "sub_degree": monad.sub_degree,
                "quot_degree": monad.quot_degree,
                "result": result.to_json(),
                "matches": matches,
            }
        )
    else:
        print(f"monad for {args.pair} at d={args.d}: sub degree {monad.sub_degree}, "
              f"quot degree {monad.quot_degree}")
        print(f"cohomology Chern pair: {result}  matches: yes")
    return EXIT_OK


def _cmd_line(args) -> int:
    index = generic_hirzebruch(args.c1, args.d)
    signed = signed_hirzebruch(args.c1, args.d)
    if args.json:
        _print_json(
            {
                "schema": SCHEMA,
                "command": "line",
                "c1": args.c1,
                "d": args.d,
                "hirzebruch_index": index,
                "signed_index": signed,
            }
        )
    else:
        print(f"Hirzebruch index {index} (signed {signed})")
    return EXIT_OK


def _cmd_scan(args) -> int:
    c1_min, c1_max, c2_min, c2_max = args.range
    if c1_min > c1_max or c2_min > c2_max:
        raise DomainError("range bounds must satisfy min <= max in both coordinates")
    cells = (c1_max - c1_min + 1) * (c2_max - c2_min + 1)
    if cells > GRID_CELL_CAP:
        raise DomainError(f"grid has {cells} cells, cap is {GRID_CELL_CAP}")
    orbits = {}
    for c1 in range(c1_min, c1_max + 1):
        for c2 in range(c2_min, c2_max + 1):
            rep = normalize(ChernPair(c1, c2)).rep
            orbits[rep] = orbits.get(rep, 0) + 1
    reps = sorted(orbits, key=lambda r: (r.c1, r.c2))
    entries = []
    for rep in reps:
        entries.append(
            {
                "rep": rep.to_json(),
                "parity": "even" if rep.c1 % 2 == 0 else "odd",
                "discriminant": discriminant(rep),
                "members": orbits[rep],
                "hcob_to_split": "yes" if split_twist(rep) is not None else "unknown",
            }
        )
    if args.json:
        _print_json(
            {
                "schema": SCHEMA,
                "command": "scan",
                "range": {
                    "c1_min": c1_min,
                    "c1_max": c1_max,
                    "c2_min": c2_min,
                    "c2_max": c2_max,
                },
                "orbits": entries,
            }
        )
    else:
        print(
            f"range c1 in [{c1_min},{c1_max}], c2 in [{c2_min},{c2_max}]: "
            f"{len(entries)} orbits"
        )
        rows = [
            [
                f"({e['rep']['c1']},{e['rep']['c2']})",
                e["parity"],
                str(e["discriminant"]),
                str(e["members"]),
                e["hcob_to_split"],
            ]
            for e in entries
        ]
        print(_table(["rep", "parity", "disc", "members", "hcob-to-split"], rows))
    return EXIT_OK


def _cmd_verify(args) -> int:
    sweeps = [
        ("orbit-oracle-vs-closed", orbit_agreement_sweep(args.orbit_bound)),
        ("split-root-vs-search", split_root_agreement_sweep(args.root_bound)),
        (
            "ring-iso-vs-discriminant",
            iso_equivalence_sweep(args.pair_bound, args.search_bound),
        ),
    ]
    all_ok = all(mismatches == 0 for _, (_, mismatches) in sweeps)
    if args.json:
        _print_json(
            {
                "schema": SCHEMA,
                "command": "verify",
                "sweeps": [
                    {
                        "name": name,
                        "checked": checked,
                        "mismatches": mismatches,
                        "ok": mismatches == 0,
                    }
                    for name, (checked, mismatches) in sweeps
                ],
                "ok": all_ok,
            }
        )
    else:
        rows = [
            [name, str(checked), str(mismatches), "ok" if mismatches == 0 else "FAIL"]
            for name, (checked, mismatches) in sweeps
        ]
        print(_table(["sweep", "checked", "mismatches", "status"], rows))
        passed = sum(1 for _, (_, m) in sweeps if m == 0)
        print(f"{passed}/{len(sweeps)} sweeps passed")
    return EXIT_OK if all_ok else EXIT_INTERNAL


def build_parser() -> _Parser:
    parser = _Parser(prog="planebundles", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.set_defaults(handler=handler)
        return p

    p = add("normalize", _cmd_normalize, "twist a pair to its orbit representative")
    p.add_argument("--pair", type=_pair_arg, required=True, metavar="C1,C2")

    for name, handler, help_text in (
        ("equiv", _cmd_equiv, "weak equivalence of the projectivizations"),
        ("hcob", _cmd_hcob, "h-cobordism verdict for the projectivizations"),
        ("report", _cmd_report, "all six relations for a pair of pairs"),
    ):
        p = add(name, handler, help_text)
        p.add_argument("--left", type=_pair_arg, required=True, metavar="C1,C2")
        p.add_argument("--right", type=_pair_arg, required=True, metavar="C1,C2")

    p = add("chow", _cmd_chow, "intersection ring, cubic form and discriminants")
    p.add_argument("--pair", type=_pair_arg, required=True, metavar="C1,C2")
    p.add_argument("--cube", type=_int_pair_arg, metavar="A,B",
                   help="also evaluate the triple self-product at (a, b)")

    p = add("moduli", _cmd_moduli, "moduli dimensions and codimension counts")
    p.add_argument("--pair", type=_pair_arg, required=True, metavar="C1,C2")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--e", type=int, default=None)
    p.add_argument("--q3-as-printed", action="store_true",
                   help="use the undistributed sign variant of Q3")

    p = add("threshold", _cmd_threshold, "least type with no deformation downward")
    p.add_argument("--pair", type=_pair_arg, required=True, metavar="C1,C2")

    p = add("types", _cmd_types, "consecutive types with pairwise obstructed h-cobordisms")
    p.add_argument("--pair", type=_pair_arg, required=True, metavar="C1,C2")
    p.add_argument("--count", type=int, required=True)

    p = add("monad-check", _cmd_monad_check, "verify monad cohomology returns the input pair")
    p.add_argument("--pair", type=_pair_arg, required=True, metavar="C1,C2")
    p.add_argument("--d", type=int, required=True)

    p = add("line", _cmd_line, "Hirzebruch index of the fiber over a generic line")
    p.add_argument("--c1", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = add("scan", _cmd_scan, "partition a grid of pairs into twist orbits")
    p.add_argument("--range", type=_range_arg, required=True,
                   metavar="C1MIN:C1MAX:C2MIN:C2MAX")

    p = add("verify", _cmd_verify, "run the oracle-vs-closed-form sweeps")
    p.add_argument("--orbit-bound", type=int, default=5)
    p.add_argument("--root-bound", type=int, default=20)
    p.add_argument("--pair-bound", type=int, default=3)
    p.add_argument("--search-bound", type=int, default=3)

    return parser


def run(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_negative_values(argv))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())
