"""Command-line interface: every computation behind subcommands with table
and JSON output.

Exit codes: 0 success (including an undecided parity search), 1 standard
output closed before everything was written (`console_main` only), 2 parse
or validation errors, 3 work-bound exhaustion, 4 support violations in
series input.

Each subcommand builds one result dict.  JSON output prints it under a
fixed head ("schema": "drinfeld/1", "command", "q") with the module's own
writer `_json`; the table format prints lines rendered from the same dict.

`main` builds the argument parser on its first call and reuses it for every
later call in the process; importing the module builds nothing.  The
subcommand functions look up the library names at call time.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .congruence import parse_group
from .curveinv import (
    PRESETS,
    assemble_invariants,
    cusps,
    elliptic_search,
    parity,
)
from .ffarith import (
    Q_MAX,
    Fq,
    ParseError,
    RatK,
    WorkBoundError,
    check_field,
    format_poly,
    parse_int,
)
from .qdiv import h0_weighted, log_canonical_divisor, presentation
from .useries import SupportError, parse_useries, split
from .weights import VanishingProfile, dim_gamma0T, type_solutions, valence_check

SCHEMA = "drinfeld/1"
DIMS_K_MAX = 1000
# admits the full-group truncation 4(q+1) of acceptance 5 for every q <= Q_MAX
SECTIONRING_WEIGHT_MAX = 4 * (Q_MAX + 1)


def _int_list(text, what):
    """The comma-separated integers of an option value, each read by `parse_int`."""
    message = "%s must be comma-separated integers" % what
    out, pos = [], 0
    for item in text.split(","):
        out.append(parse_int(item, pos, message))
        pos += len(item) + 1
    return tuple(out)


def _modulus(args):
    return None if args.modulus is None else _int_list(args.modulus, "modulus")


def _json(x, pad="\n", _quote=json.encoder.encode_basestring_ascii):
    """x as indent-2 JSON text, as the json module writes it (str, int, bool, None, list, dict)."""
    if isinstance(x, str):
        return _quote(x)
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    inner = pad + "  "
    if isinstance(x, dict):
        items = [_quote(k) + ": " + _json(v, inner) for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(x, list):
        items = [_json(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    raise TypeError("cannot write %s as JSON" % type(x).__name__)


def _emit(args, result, table):
    """Print one result: as JSON under the common head, or as the lines
    that `table` renders from the same dict."""
    if args.format == "json":
        payload = {"schema": SCHEMA, "command": args.command, "q": args.q, **result}
        print(_json(payload))
    else:
        for line in table(result):
            print(line)
    return 0


def _text(texts, x):
    """PolyA or RatK text, formatted once per `texts`, the dict of one request."""
    key = (x.num.coeffs, x.den.coeffs) if isinstance(x, RatK) else x.coeffs
    return texts[key] if key in texts else texts.setdefault(key, repr(x))


def _witness_payload(field, w, texts):
    g = w.gamma
    return {
        "matrix": [
            [_text(texts, g.a), _text(texts, g.b)],
            [_text(texts, g.c), _text(texts, g.d)],
        ],
        "det": field.format_elem(w.det),
        "det_is_square": w.det_is_square,
        "quad_b": _text(texts, w.quad_b),
        "quad_c": _text(texts, w.quad_c),
    }


def _matrix_text(w):
    (a, b), (c, d) = w["matrix"]
    return "(%s, %s; %s, %s)" % (a, b, c, d)


def _square_text(w):
    return "square" if w["det_is_square"] else "non-square"


def cmd_parity(args):
    field = Fq(args.q, modulus=_modulus(args))
    G = parse_group(args.group, field, args.level)
    p = parity(G, args.deg_bound, field)
    result = {
        "group": str(G),
        "deg_bound": args.deg_bound,
        "classification": "undecided" if p.kind == "NoWitnessFound" else p.kind,
        "bound": p.bound,
        "witness": _witness_payload(field, p.witness, {}) if p.witness else None,
    }
    return _emit(args, result, _parity_table)


def _parity_table(r):
    shown = r["classification"]
    if shown == "undecided":
        shown = "undecided(%d)" % r["bound"]
    yield "classification: %s" % shown
    w = r["witness"]
    if w is not None:
        yield "witness: %s" % _matrix_text(w)
        yield "det: %s (%s)" % (w["det"], _square_text(w))
        yield "quadratic: z^2 + (%s)*z + (%s)" % (w["quad_b"], w["quad_c"])


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
    result = {"preset": args.preset, "k_max": args.k_max, "rows": rows}
    return _emit(args, result, _dims_table)


def _dims_table(r):
    yield "k  l  dim  h0  agree"
    for row in r["rows"]:
        yield "%-2d %-2d %-4d %-3d %s" % (
            row["k"], row["l"], row["dim"], row["h0"], "yes" if row["agree"] else "NO"
        )


def cmd_sectionring(args):
    if args.max_weight % 2 != 0 or args.max_weight < 2:
        raise ValueError("--max-weight must be a positive even integer")
    if args.max_weight > SECTIONRING_WEIGHT_MAX:
        raise ValueError(
            "--max-weight %d exceeds the supported maximum SECTIONRING_WEIGHT_MAX = %d"
            % (args.max_weight, SECTIONRING_WEIGHT_MAX)
        )
    field = Fq(args.q, modulus=_modulus(args))
    inv = assemble_invariants(args.preset, field)
    D = log_canonical_divisor(inv)
    pres = presentation(D, args.max_weight)
    result = {
        "preset": args.preset,
        "max_weight": args.max_weight,
        "divisor": repr(D),
        "generators": [
            {"weight": g.weight, "section": g.label()} for g in pres.generators
        ],
        "relations": [
            {
                "weight": r.weight,
                "monomial_combination": [
                    {"exponents": list(exps), "coeff": str(coeff)}
                    for exps, coeff in r.combo
                ],
            }
            for r in pres.relations
        ],
    }
    return _emit(args, result, _sectionring_table)


def _combo_text(combo):
    parts = []
    for term in combo:
        factors = []
        for i, e in enumerate(term["exponents"]):
            if e == 1:
                factors.append("x%d" % i)
            elif e > 1:
                factors.append("x%d^%d" % (i, e))
        mono = "*".join(factors) if factors else "1"
        parts.append("(%s)*%s" % (term["coeff"], mono))
    return " + ".join(parts)


def _sectionring_table(r):
    yield "divisor: %s" % r["divisor"]
    for i, g in enumerate(r["generators"]):
        yield "generator x%d: weight %d, section %s" % (i, g["weight"], g["section"])
    for rel in r["relations"]:
        yield "relation (weight %d): %s = 0" % (
            rel["weight"], _combo_text(rel["monomial_combination"])
        )
    if not r["relations"]:
        yield "relations: none"


def _series_payload(f):
    return {
        "type": f.type_residue,
        "series": repr(f),
        "terms": [{"n": n, "coeff": repr(f.coeff(n))} for n in f.support()],
    }


def cmd_split(args):
    if args.k % 2 != 0:
        raise ValueError("--k must be even")
    field = Fq(args.q, modulus=_modulus(args))
    f = parse_useries(args.series, field, weight=args.k)
    f1, f2 = split(f, args.k, field.q)
    result = {"k": args.k, "f1": _series_payload(f1), "f2": _series_payload(f2)}
    return _emit(args, result, _split_table)


def _split_table(r):
    for name in ("f1", "f2"):
        yield "%s (type %d): %s" % (name, r[name]["type"], r[name]["series"])


def cmd_cusps(args):
    field = Fq(args.q, modulus=_modulus(args))
    G = parse_group(args.group, field, args.level)
    cs = cusps(G, field)
    result = {
        "group": str(G),
        "count": cs.count,
        "reps": [
            {"u": format_poly(u), "v": format_poly(v), "orbit_size": size}
            for (u, v), size in zip(cs.reps, cs.sizes)
        ],
        "total_primitive_vectors": cs.total,
    }
    return _emit(args, result, _cusps_table)


def _cusps_table(r):
    yield "count: %d" % r["count"]
    for rep in r["reps"]:
        yield "(%s, %s)  orbit size %d" % (rep["u"], rep["v"], rep["orbit_size"])
    yield "total primitive vectors: %d" % r["total_primitive_vectors"]


def cmd_valence(args):
    check_field(args.q, _modulus(args))  # reads only q: no field tables
    others = ()
    if args.v_other:
        others = _int_list(args.v_other, "v_other")
    prof = VanishingProfile(
        k=args.k, v_inf=args.v_inf, v_e=args.v_e, v_other=others
    )
    result = {
        "k": args.k,
        "v_inf": args.v_inf,
        "v_e": args.v_e,
        "v_other": list(others),
        "holds": valence_check(prof, args.q),
    }
    return _emit(args, result, _valence_table)


def _valence_table(r):
    yield "holds: %s" % ("true" if r["holds"] else "false")


def cmd_ellsearch(args):
    field = Fq(args.q, modulus=_modulus(args))
    G = parse_group(args.group, field, args.level)
    ws = elliptic_search(G, args.deg_bound, field)
    texts = {}
    result = {
        "group": str(G),
        "deg_bound": args.deg_bound,
        "count": len(ws),
        "witnesses": [_witness_payload(field, w, texts) for w in ws],
    }
    return _emit(args, result, _ellsearch_table)


def _ellsearch_table(r):
    yield "count: %d" % r["count"]
    for w in r["witnesses"]:
        yield "%s  det %s (%s)  quad z^2 + (%s)*z + (%s)" % (
            _matrix_text(w), w["det"], _square_text(w), w["quad_b"], w["quad_c"]
        )


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


@functools.cache
def build_parser():
    """The parser of `main`, built once per process on first use."""
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


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
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
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # the exit flushes stdout again: point it at devnull so that cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    console_main()
