"""Command-line interface: every computation behind subcommands with table
and JSON output.

Exit codes: 0 success, 1 standard output closed before everything was
written (`console_main` only), 2 parse or validation errors, 3 work-bound
exhaustion, 4 support violations in series input.

Each subcommand builds one result dict.  JSON output prints it under a
fixed head ("schema": "drinfeld/1", "command", "q") with the module's own
writer `_json`, which takes exactly the types these dicts hold and appends
the text as pieces to one list, joined once; the table format prints lines
rendered from the same dict.  Integer options are read by
`ffarith.parse_int`, so an over-long literal is refused by its length and
never echoed.

`main` reads argv with one option table, `COMMANDS`, as argparse would;
importing the module builds nothing.  The subcommand functions look up the
library names at call time.
"""

from __future__ import annotations

import json
import os
import re
import sys
import types

from .congruence import parse_group
from .curveinv import PRESETS, assemble_invariants, cusps, elliptic_search, parity
from .ffarith import Q_MAX, Fq, ParseError, RatK, WorkBoundError, format_poly, parse_int
from .qdiv import _h0_gamma0T, log_canonical_divisor, presentation
from .useries import SupportError, parse_useries, split
from .weights import VanishingProfile, _dim_gamma0T, _type_solutions, _units, valence_check

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


def _json(x, _quote=json.encoder.encode_basestring_ascii):
    """x, a dict or list as the subcommands build it, as indent-2 JSON text
    the way the json module writes it.  Values are exactly dict (str keys),
    list, str, int, bool or None; anything else, subclasses too, raises TypeError.

    The text is appended as pieces to one list, joined once at the end.  A
    str, int, bool or None child is put in place with no call, and only a
    dict or list recurses.  The brackets and separators of each depth, the
    head of each key and the quoted text of each str value are made once
    per call and put as the same object wherever they recur.
    """
    if x.__class__ is not dict and x.__class__ is not list:
        raise TypeError("cannot write %s as JSON" % type(x).__name__)
    pieces, marks, heads, quoted = [], [], {}, {}
    put = pieces.append

    def write(x, depth):
        if not x:
            put("{}" if x.__class__ is dict else "[]")
            return
        if depth == len(marks):
            pad = "\n" + "  " * depth
            inner = pad + "  "
            marks.append(("{" + inner, "[" + inner, "," + inner, pad + "}", pad + "]"))
        open_dict, open_list, comma, close_dict, close_list = marks[depth]
        if x.__class__ is dict:
            keyed, items, sep, close = True, x.items(), open_dict, close_dict
        else:
            keyed, items, sep, close = False, enumerate(x), open_list, close_list
        depth += 1
        for k, v in items:
            put(sep)
            sep = comma
            if keyed:
                head = heads.get(k)
                if head is None:
                    head = heads[k] = _quote(k) + ": "
                put(head)
            kind = v.__class__
            if kind is str:
                text = quoted.get(v)
                if text is None:
                    text = quoted[v] = _quote(v)
                put(text)
            elif kind is bool or v is None:
                put("null" if v is None else "true" if v else "false")
            elif kind is int:
                put(int.__repr__(v))
            elif kind is dict or kind is list:
                write(v, depth)
            else:
                raise TypeError("cannot write %s as JSON" % kind.__name__)
        put(close)

    write(x, 0)
    return "".join(pieces)


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
    key = (x.num.coeffs, x.den.coeffs) if x.__class__ is RatK else x.coeffs
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
    G = parse_group(args.group, field)
    p = parity(G, args.deg_bound, field)
    result = {
        "group": str(G),
        "deg_bound": args.deg_bound,
        "classification": p.kind,
        "bound": p.bound,
        "witness": _witness_payload(field, p.witness, {}) if p.witness else None,
    }
    return _emit(args, result, _parity_table)


def _parity_table(r):
    yield "classification: %s" % r["classification"]
    w = r["witness"]
    if w is not None:
        yield "witness: %s" % _matrix_text(w)
        yield "det: %s (%s)" % (w["det"], _square_text(w))
        yield "quadratic: z^2 + (%s)*z + (%s)" % (w["quad_b"], w["quad_c"])


def cmd_dims(args):
    if args.k_max % 2 != 0 or args.k_max < 2:
        raise ValueError("--k-max must be a positive even integer")
    if args.k_max > DIMS_K_MAX:
        raise ValueError("--k-max %d exceeds the supported maximum DIMS_K_MAX = %d"
                         % (args.k_max, DIMS_K_MAX))
    q = args.q
    _units(q)  # the one check of q: the rows skip it, and no field is built
    rows = []
    for k in range(2, args.k_max + 1, 2):
        for l in sorted(_type_solutions(k, q)):
            dim = _dim_gamma0T(k, l, q)
            cross = _h0_gamma0T(q, k, l)
            rows.append({"k": k, "l": l, "dim": dim, "h0": cross, "agree": dim == cross})
    result = {"preset": "Gamma0T_2", "k_max": args.k_max, "rows": rows}
    return _emit(args, result, _dims_table)


def _dims_table(r):
    yield "k  l  dim  h0  agree"
    for row in r["rows"]:
        agree = "yes" if row["agree"] else "NO"
        yield "%-2d %-2d %-4d %-3d %s" % (row["k"], row["l"], row["dim"], row["h0"], agree)


def cmd_sectionring(args):
    if args.max_weight % 2 != 0 or args.max_weight < 2:
        raise ValueError("--max-weight must be a positive even integer")
    if args.max_weight > SECTIONRING_WEIGHT_MAX:
        raise ValueError("--max-weight %d exceeds the supported maximum "
                         "SECTIONRING_WEIGHT_MAX = %d" % (args.max_weight, SECTIONRING_WEIGHT_MAX))
    field = Fq(args.q)
    inv = assemble_invariants(args.preset, field)
    D = log_canonical_divisor(inv)
    pres = presentation(D, args.max_weight)
    result = {
        "preset": args.preset,
        "max_weight": args.max_weight,
        "divisor": repr(D),
        "generators": [{"weight": g.weight, "section": g.label()} for g in pres.generators],
        "relations": [
            {"weight": r.weight, "monomial_combination": [
                {"exponents": list(exps), "coeff": str(coeff)} for exps, coeff in r.combo]}
            for r in pres.relations
        ],
    }
    return _emit(args, result, _sectionring_table)


def _combo_text(combo):
    parts = []
    for term in combo:
        exps = enumerate(term["exponents"])
        mono = "*".join("x%d" % i if e == 1 else "x%d^%d" % (i, e) for i, e in exps if e > 0)
        parts.append("(%s)*%s" % (term["coeff"], mono or "1"))
    return " + ".join(parts)


def _sectionring_table(r):
    yield "divisor: %s" % r["divisor"]
    for i, g in enumerate(r["generators"]):
        yield "generator x%d: weight %d, section %s" % (i, g["weight"], g["section"])
    for rel in r["relations"]:
        combo = _combo_text(rel["monomial_combination"])
        yield "relation (weight %d): %s = 0" % (rel["weight"], combo)
    if not r["relations"]:
        yield "relations: none"


def _series_payload(f):
    terms = [{"n": n, "coeff": repr(f.coeff(n))} for n in f.support()]
    return {"type": f.type_residue, "series": repr(f), "terms": terms}


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
    G = parse_group(args.group, field)
    cs = cusps(G, field)
    result = {
        "group": str(G),
        "count": cs.count,
        "reps": [{"u": format_poly(u), "v": format_poly(v), "orbit_size": size}
                 for (u, v), size in zip(cs.reps, cs.sizes)],
        "total_primitive_vectors": cs.total,
    }
    return _emit(args, result, _cusps_table)


def _cusps_table(r):
    yield "count: %d" % r["count"]
    for rep in r["reps"]:
        yield "(%s, %s)  orbit size %d" % (rep["u"], rep["v"], rep["orbit_size"])
    yield "total primitive vectors: %d" % r["total_primitive_vectors"]


def cmd_valence(args):
    others = _int_list(args.v_other, "v_other") if args.v_other else ()
    prof = VanishingProfile(k=args.k, v_inf=args.v_inf, v_e=args.v_e, v_other=others)
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
    G = parse_group(args.group, field)
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
            _matrix_text(w), w["det"], _square_text(w), w["quad_b"], w["quad_c"])


# The option table: each command's handler, one-line help and options in
# order.  An option maps its name to (converter, default, help): parse_int, a
# tuple of choices or str; _REQUIRED marks a required option, and a name
# without a dash a positional argument.  In _TOP, the first positional
# argument names the command, and all that follows it is the command's own.
_REQUIRED = object()
_COMMON = {
    "--q": (parse_int, _REQUIRED, "odd prime power, at most %d" % Q_MAX),
    "--format": (("table", "json"), "table", "output format"),
}
_FIELD = {"--modulus": (str, None, "field modulus as F_p coefficients, lowest first")}
_GROUP = {**_COMMON, **_FIELD, "--group": (str, _REQUIRED, "full, gammaN:<poly>, gamma1:<poly> "
                                           "or gamma0:<poly>, with optional !sq/!one/!idx<m>")}
_SEARCH = {**_GROUP, "--deg-bound": (parse_int, 0, "degree bound of the searched entries")}
COMMANDS = {
    "parity": (cmd_parity, "square/non-square classification", _SEARCH),
    "dims": (cmd_dims, "dimension table with section cross-check", {
        **_COMMON, "--k-max": (parse_int, _REQUIRED, "even, at most %d" % DIMS_K_MAX)}),
    "sectionring": (cmd_sectionring, "generators and relations", {
        **_COMMON, "--preset": (PRESETS, _REQUIRED, "the curve"),
        "--max-weight": (parse_int, _REQUIRED, "even, at most %d" % SECTIONRING_WEIGHT_MAX)}),
    "split": (cmd_split, "sort a series into its two type classes", {
        **_COMMON, **_FIELD, "--k": (parse_int, _REQUIRED, "even weight"),
        "series": (str, _REQUIRED, "sum of c*u^n terms, e.g. 'u^2+3*u^4'")}),
    "cusps": (cmd_cusps, "cusp representatives and orbit sizes", _GROUP),
    "valence": (cmd_valence, "check a vanishing profile", {
        **_COMMON, "--k": (parse_int, _REQUIRED, "weight"),
        "--v-inf": (parse_int, 0, "order at infinity"),
        "--v-e": (parse_int, 0, "order at the elliptic points"),
        "--v-other": (str, None, "comma-separated orders at other points")}),
    "ellsearch": (cmd_ellsearch, "elliptic witness search", _SEARCH),
}
_TOP = (None, "Invariants of Drinfeld modular curves and their form rings.",
        {"command": (tuple(COMMANDS), _REQUIRED, "")})
_HELP = ("-h", "--help")
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # a number: a value, not an option


def _spelling(name, convert, default=_REQUIRED):
    """An option as the usage writes it; brackets mark an optional one."""
    meta = "{%s}" % ",".join(convert) if convert.__class__ is tuple else name[2:].upper()
    text = "%s %s" % (name, meta.replace("-", "_")) if name[0] == "-" else name
    return text if default is _REQUIRED else "[%s]" % text


def _usage(command):
    if command is None:
        return "usage: drinfeld [-h] {%s} ..." % ",".join(COMMANDS)
    words = [_spelling(n, c, d) for n, (c, d, _) in COMMANDS[command][2].items()]
    return " ".join(["usage: drinfeld %s [-h]" % command] + words)


def _refuse(command, message):
    """Print the usage and argparse's message to stderr, and exit 2."""
    prog = "drinfeld %s" % command if command else "drinfeld"
    print("%s\n%s: error: %s" % (_usage(command), prog, message), file=sys.stderr)
    raise SystemExit(2)


def _help(command, name, value):
    """Print the help of command (None: of drinfeld) and exit 0.  As in
    argparse, a value given to the option is refused unless it is all h's."""
    if value is not None and (name != "-h" or not value or value.lstrip("h")):
        rest = value.lstrip("h") if name == "-h" else value
        _refuse(command, "argument -h/--help: ignored explicit argument %r" % rest)
    rows = [(c, entry[1]) for c, entry in COMMANDS.items()] if command is None else [
        (_spelling(n, c), t + {_REQUIRED: " (required)", None: ""}.get(d, " (default: %s)" % d))
        for n, (c, d, t) in COMMANDS[command][2].items()]
    head = (COMMANDS[command] if command else _TOP)[1]
    print(_usage(command), "", head, "", *("  %-24s %s" % row for row in rows), sep="\n")
    raise SystemExit(0)


def _token(tok, options, command):
    """How argparse reads tok: None for a value, else (name, the text given
    after = or -h, or None), with name None for an unknown option."""
    if tok[:1] != "-" or tok == "-":
        return None
    name, eq, value = tok.partition("=")
    if name in options or name in _HELP:
        return name, (value if eq else None)
    if tok[1] == "-":  # a prefix of long names
        hits = [(n, value if eq else None) for n in (*_HELP, *options) if n.startswith(name)]
        if len(hits) > 1:
            _refuse(command, "ambiguous option: %s could match %s" % (tok, ", ".join(dict(hits))))
        if hits:
            return hits[0]
    elif tok[1] == "h":
        return "-h", tok[2:]
    return None if _NEGATIVE.match(tok) or " " in tok else (None, None)


def _read(argv, command=None):
    """The namespace that `main` dispatches on and the arguments left over, read as
    argparse reads argv (command None: argv names the command).  Help exits 0 and
    a usage error exits 2, by SystemExit."""
    handler, _, options = COMMANDS[command] if command else _TOP
    n = argv.index("--") if "--" in argv else len(argv)
    # None for a value, "--" for the end of the options and past argv, else _token's pair
    marks = [_token(tok, options, command) for tok in argv[:n]]
    marks += ["--"] + [None] * (len(argv) - n - 1) + ["--"]
    positional = next((name for name in options if name[0] != "-"), None)
    given, extras, i = {}, [], 0
    while i < len(argv):
        mark = marks[i]
        if mark.__class__ is tuple and mark[0] in options:
            name, value = mark
            if value is None:
                if marks[i + 1] is not None:
                    _refuse(command, "argument %s: expected one argument" % name)
                i += 1
                value = argv[i]
        elif mark.__class__ is tuple and mark[0]:
            _help(command, *mark)
        elif positional and marks[i + (mark == "--")] is None:  # a value, or -- and a value
            i += bool(command) and mark == "--"  # a command's value takes a -- on either side
            name, positional, value = positional, None, argv[i]
            i += bool(command) and marks[i + 1] == "--"
        else:
            extras.append(argv[i])
            i += 1
            continue
        convert = options[name][0]
        if convert.__class__ is tuple:
            if value not in convert:
                choices = ", ".join(map(repr, convert))
                _refuse(command, "argument %s: invalid choice: %r (choose from %s)"
                        % (name, value, choices))
        elif convert is not str:  # parse_int
            try:
                value = convert(value, 0, "invalid int value")
            except ParseError as e:
                _refuse(command, "argument %s: %s" % (name, e))
        if command is None:  # the command, -- too, reads the rest
            args, more = _read(argv[i + 1:], value)
            return args, extras + more
        given[name] = value
        i += 1
    missing = [n for n, (_, d, _) in options.items() if d is _REQUIRED and n not in given]
    if missing:
        _refuse(command, "the following arguments are required: %s" % ", ".join(missing))
    args = types.SimpleNamespace(command=command, func=handler)
    for name, (_, default, _) in options.items():
        setattr(args, name.lstrip("-").replace("-", "_"), given.get(name, default))
    return args, extras


def main(argv=None):
    try:
        args, extras = _read(sys.argv[1:] if argv is None else list(argv))
        if extras:
            _refuse(None, "unrecognized arguments: %s" % " ".join(extras))
    except SystemExit as e:
        return e.code
    try:
        return args.func(args)
    except SupportError as e:
        print("error: %s" % e, file=sys.stderr)
        return 4
    except WorkBoundError as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    except ValueError as e:
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
