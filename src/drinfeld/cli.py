"""Command-line interface: every computation behind subcommands with table
and JSON output.

Exit codes: 0 success (including an undecided parity search), 2 parse or
validation errors, 3 work-bound exhaustion, 4 support violations in series
input.  JSON payloads carry a fixed "schema": "drinfeld/1" key; the table
format prints the same data for humans.

`main` builds the argument parser on its first call and reuses it for every
later call in the process; importing the module builds nothing.  The
subcommand functions look up the library names at call time.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .congruence import parse_group
from .curveinv import (
    PRESETS,
    assemble_invariants,
    cusps,
    elliptic_search,
    parity,
)
from .ffarith import Q_MAX, Fq, ParseError, WorkBoundError, check_field, format_poly
from .qdiv import h0_weighted, log_canonical_divisor, presentation, rr_basis
from .useries import SupportError, parse_useries, split
from .weights import VanishingProfile, dim_gamma0T, type_solutions, valence_check

SCHEMA = "drinfeld/1"
DIMS_K_MAX = 1000
# admits the full-group truncation 4(q+1) of acceptance 5 for every q <= Q_MAX
SECTIONRING_WEIGHT_MAX = 4 * (Q_MAX + 1)


def _modulus(args):
    if not getattr(args, "modulus", None):
        return None
    try:
        return tuple(int(c) for c in args.modulus.split(","))
    except ValueError:
        raise ParseError("modulus must be comma-separated integers", 0)


def _field(args):
    return Fq(args.q, modulus=_modulus(args))


def _emit(args, payload, lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
    return 0


def _group_of(args, field):
    return parse_group(args.group, field, getattr(args, "level", None))


def _witness_payload(field, w):
    g = w.gamma
    return {
        "matrix": [
            [format_poly(g.a), format_poly(g.b)],
            [format_poly(g.c), format_poly(g.d)],
        ],
        "det": field.format_elem(w.det),
        "det_is_square": w.det_is_square,
        "quad_b": repr(w.quad_b),
        "quad_c": repr(w.quad_c),
    }


def _witness_lines(field, w):
    return [
        "witness: %r" % (w.gamma,),
        "det: %s (%s)"
        % (field.format_elem(w.det), "square" if w.det_is_square else "non-square"),
        "quadratic: z^2 + (%r)*z + (%r)" % (w.quad_b, w.quad_c),
    ]


def cmd_parity(args):
    field = _field(args)
    G = _group_of(args, field)
    p = parity(G, args.deg_bound, field)
    if p.kind == "NoWitnessFound":
        classification = "undecided"
        shown = "undecided(%d)" % p.bound
    else:
        classification = p.kind
        shown = p.kind
    payload = {
        "schema": SCHEMA,
        "command": "parity",
        "q": field.q,
        "group": str(G),
        "deg_bound": args.deg_bound,
        "classification": classification,
        "bound": p.bound,
        "witness": _witness_payload(field, p.witness) if p.witness else None,
    }
    lines = ["classification: %s" % shown]
    if p.witness is not None:
        lines.extend(_witness_lines(field, p.witness))
    return _emit(args, payload, lines)


def cmd_dims(args):
    if args.preset != "Gamma0T_2":
        raise ValueError("dimension table is available for preset Gamma0T_2 only")
    if args.k_max % 2 != 0 or args.k_max < 2:
        raise ValueError("--k-max must be a positive even integer")
    if args.k_max > DIMS_K_MAX:
        raise ValueError(
            "--k-max %d exceeds the supported maximum DIMS_K_MAX = %d"
            % (args.k_max, DIMS_K_MAX)
        )
    check_field(args.q, _modulus(args))  # reads only q: no field tables
    q = args.q
    rows = []
    for k in range(2, args.k_max + 1, 2):
        for l in sorted(type_solutions(k, q)):
            dim = dim_gamma0T(k, l, q)
            cross = h0_weighted("Gamma0T_2", q, k, l)
            rows.append(
                {"k": k, "l": l, "dim": dim, "h0": cross, "agree": dim == cross}
            )
    payload = {
        "schema": SCHEMA,
        "command": "dims",
        "q": q,
        "preset": args.preset,
        "k_max": args.k_max,
        "rows": rows,
    }
    lines = ["k  l  dim  h0  agree"]
    for r in rows:
        lines.append(
            "%-2d %-2d %-4d %-3d %s"
            % (r["k"], r["l"], r["dim"], r["h0"], "yes" if r["agree"] else "NO")
        )
    return _emit(args, payload, lines)


def _combo_text(combo):
    parts = []
    for exps, coeff in combo:
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append("x%d" % i)
            elif e > 1:
                factors.append("x%d^%d" % (i, e))
        mono = "*".join(factors) if factors else "1"
        parts.append("(%s)*%s" % (coeff, mono))
    return " + ".join(parts)


def cmd_sectionring(args):
    if args.max_weight % 2 != 0 or args.max_weight < 2:
        raise ValueError("--max-weight must be a positive even integer")
    if args.max_weight > SECTIONRING_WEIGHT_MAX:
        raise ValueError(
            "--max-weight %d exceeds the supported maximum SECTIONRING_WEIGHT_MAX = %d"
            % (args.max_weight, SECTIONRING_WEIGHT_MAX)
        )
    field = _field(args)
    inv = assemble_invariants(args.preset, field)
    D = log_canonical_divisor(inv)
    pres = presentation(D, args.max_weight)
    gens = []
    for g in pres.generators:
        basis = rr_basis(g.degree * D)
        gens.append({"weight": g.weight, "section": basis.label(g.section_index)})
    rels = []
    for r in pres.relations:
        rels.append(
            {
                "weight": r.weight,
                "monomial_combination": [
                    {"exponents": list(exps), "coeff": str(coeff)}
                    for exps, coeff in r.combo
                ],
            }
        )
    payload = {
        "schema": SCHEMA,
        "command": "sectionring",
        "q": field.q,
        "preset": args.preset,
        "max_weight": args.max_weight,
        "divisor": repr(D),
        "generators": gens,
        "relations": rels,
    }
    lines = ["divisor: %r" % (D,)]
    for i, g in enumerate(gens):
        lines.append("generator x%d: weight %d, section %s" % (i, g["weight"], g["section"]))
    if rels:
        for r in pres.relations:
            lines.append(
                "relation (weight %d): %s = 0"
                % (r.weight, _combo_text(r.combo))
            )
    else:
        lines.append("relations: none")
    return _emit(args, payload, lines)


def _series_payload(f):
    return {
        "type": f.type_residue,
        "series": repr(f),
        "terms": [{"n": n, "coeff": repr(f.coeff(n))} for n in f.support()],
    }


def cmd_split(args):
    if args.k % 2 != 0:
        raise ValueError("--k must be even")
    field = _field(args)
    f = parse_useries(args.series, field, weight=args.k)
    f1, f2 = split(f, args.k, field.q)
    payload = {
        "schema": SCHEMA,
        "command": "split",
        "q": field.q,
        "k": args.k,
        "f1": _series_payload(f1),
        "f2": _series_payload(f2),
    }
    lines = [
        "f1 (type %d): %r" % (f1.type_residue, f1),
        "f2 (type %d): %r" % (f2.type_residue, f2),
    ]
    return _emit(args, payload, lines)


def cmd_cusps(args):
    field = _field(args)
    G = _group_of(args, field)
    cs = cusps(G, field)
    payload = {
        "schema": SCHEMA,
        "command": "cusps",
        "q": field.q,
        "group": str(G),
        "count": cs.count,
        "reps": [
            {"u": format_poly(u), "v": format_poly(v), "orbit_size": size}
            for (u, v), size in zip(cs.reps, cs.sizes)
        ],
        "total_primitive_vectors": cs.total,
    }
    lines = ["count: %d" % cs.count]
    for (u, v), size in zip(cs.reps, cs.sizes):
        lines.append("(%s, %s)  orbit size %d" % (format_poly(u), format_poly(v), size))
    lines.append("total primitive vectors: %d" % cs.total)
    return _emit(args, payload, lines)


def cmd_valence(args):
    check_field(args.q, _modulus(args))  # reads only q: no field tables
    q = args.q
    others = ()
    if args.v_other:
        others = tuple(int(x) for x in args.v_other.split(","))
    prof = VanishingProfile(
        k=args.k, v_inf=args.v_inf, v_e=args.v_e, v_other=others
    )
    holds = valence_check(prof, q)
    payload = {
        "schema": SCHEMA,
        "command": "valence",
        "q": q,
        "k": args.k,
        "v_inf": args.v_inf,
        "v_e": args.v_e,
        "v_other": list(others),
        "holds": holds,
    }
    return _emit(args, payload, ["holds: %s" % ("true" if holds else "false")])


def cmd_ellsearch(args):
    field = _field(args)
    G = _group_of(args, field)
    ws = elliptic_search(G, args.deg_bound, field)
    payload = {
        "schema": SCHEMA,
        "command": "ellsearch",
        "q": field.q,
        "group": str(G),
        "deg_bound": args.deg_bound,
        "count": len(ws),
        "witnesses": [_witness_payload(field, w) for w in ws],
    }
    lines = ["count: %d" % len(ws)]
    for w in ws:
        lines.append(
            "%r  det %s (%s)  quad z^2 + (%r)*z + (%r)"
            % (
                w.gamma,
                field.format_elem(w.det),
                "square" if w.det_is_square else "non-square",
                w.quad_b,
                w.quad_c,
            )
        )
    return _emit(args, payload, lines)


def _add_common(sp):
    sp.add_argument(
        "--q", type=int, required=True, help="odd prime power, at most %d" % Q_MAX
    )
    sp.add_argument(
        "--modulus",
        help="field modulus as comma-separated F_p coefficients, lowest first",
    )
    sp.add_argument("--format", choices=("table", "json"), default="table")


def _add_group(sp):
    sp.add_argument(
        "--group",
        required=True,
        help="group descriptor: full, gammaN:<poly>, gamma1:<poly>, "
        "gamma0:<poly>, with optional !sq/!one/!idx<m> suffix",
    )
    sp.add_argument("--level", help="level polynomial when not embedded in --group")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="drinfeld",
        description="Invariants of Drinfeld modular curves and their form rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parity", help="square/non-square classification")
    _add_common(sp)
    _add_group(sp)
    sp.add_argument("--deg-bound", type=int, default=0)
    sp.set_defaults(func=cmd_parity)

    sp = sub.add_parser("dims", help="dimension table with section cross-check")
    _add_common(sp)
    sp.add_argument("--preset", choices=PRESETS, default="Gamma0T_2")
    sp.add_argument(
        "--k-max", type=int, required=True, help="even, at most %d" % DIMS_K_MAX
    )
    sp.set_defaults(func=cmd_dims)

    sp = sub.add_parser("sectionring", help="generators and relations")
    _add_common(sp)
    sp.add_argument("--preset", choices=PRESETS, required=True)
    sp.add_argument(
        "--max-weight", type=int, required=True, help="even, at most %d" % SECTIONRING_WEIGHT_MAX
    )
    sp.set_defaults(func=cmd_sectionring)

    sp = sub.add_parser("split", help="sort a series into its two type classes")
    _add_common(sp)
    sp.add_argument("--k", type=int, required=True, help="even weight")
    sp.add_argument("series", help="sum of c*u^n terms, e.g. 'u^2+3*u^4'")
    sp.set_defaults(func=cmd_split)

    sp = sub.add_parser("cusps", help="cusp representatives and orbit sizes")
    _add_common(sp)
    _add_group(sp)
    sp.set_defaults(func=cmd_cusps)

    sp = sub.add_parser("valence", help="check a vanishing profile")
    _add_common(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--v-inf", type=int, default=0)
    sp.add_argument("--v-e", type=int, default=0)
    sp.add_argument("--v-other", help="comma-separated orders at other points")
    sp.set_defaults(func=cmd_valence)

    sp = sub.add_parser("ellsearch", help="elliptic witness search")
    _add_common(sp)
    _add_group(sp)
    sp.add_argument("--deg-bound", type=int, default=0)
    sp.set_defaults(func=cmd_ellsearch)

    return parser


@functools.cache
def _parser():
    """The parser of `main`, built once per process on first use."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except SupportError as e:
        print("error: %s" % e, file=sys.stderr)
        return 4
    except WorkBoundError as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    except (ParseError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
