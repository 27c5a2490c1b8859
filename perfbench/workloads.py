"""Seeded request lists for the three benchmark workloads.

A workload is a fixed list of cells.  A cell names one kind of request (a
subcommand at a fixed q, group family, level shape, preset or weight band)
and owns a finite pool of distinct argv lists that all cost about the same.
The seed only chooses which members of each pool are sent, so every seed
gives a pass of comparable load, and a pass never repeats an argv.

Every pool is enumerated in full by `pools()`, which is what the golden
record covers: any argv a seed can draw has a recorded exit code and stdout
digest.
"""

from __future__ import annotations

import random
import shlex

WORKLOADS = ("search", "cusps", "forms")

# A pass sends every cell's designed count of requests, whatever --seconds
# says: scaling the counts would drop the one-request cells from short runs
# and shift long runs toward the light cells, so results would no longer be
# comparable.  --seconds only sets the number of passes: one per
# PASS_SECONDS (about a pass's length at the commit that recorded the golden
# digests), and never fewer than MIN_PASSES.
PASS_SECONDS = 10
MIN_PASSES = 3

Q9_MODULI = ("1,0,1", "2,1,1")  # x^2+1 (the default) and x^2+x+2 over F_3


class Cell:
    """One kind of request: a pool of distinct argv lists and a draw count."""

    def __init__(self, name, count, pool):
        self.name = name
        self.count = count
        self.pool = sorted(pool)
        if len(set(self.pool)) != len(self.pool):
            raise ValueError("cell %s has duplicate argv" % name)
        if count > len(self.pool):
            raise ValueError("cell %s draws more than its pool" % name)


# --------------------------------------------------------------- text helpers


def _prime_poly(coeffs):
    """Polynomial text over a prime field from coefficients, lowest first."""
    parts = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c == 0:
            continue
        var = "" if d == 0 else ("T" if d == 1 else "T^%d" % d)
        if not var:
            parts.append(str(c))
        elif c == 1:
            parts.append(var)
        else:
            parts.append("%d*%s" % (c, var))
    return "+".join(parts) if parts else "0"


def _ext_const(k):
    """The constant a^k in an extension field (k = 0 is 1)."""
    return {0: "1", 1: "a"}.get(k, "a^%d" % k)


# Levels of one shape cost the same: a zero constant term, or a constant
# outside the prime field (several nonzero coordinates), makes a request
# measurably cheaper or dearer, so every level pool keeps one shape.


def _linear_levels(q):
    """Linear levels c1*T + c0 with c0 != 0 over a prime field."""
    return [_prime_poly([c0, c1]) for c1 in range(1, q) for c0 in range(1, q)]


def _ext_linear_levels(p):
    """Monic linear levels T + c over an extension of F_p, c in F_p^x."""
    return ["T+%d" % c for c in range(1, p)]


def _quadratic_levels(q, kind):
    """Monic quadratics T^2 + b*T + c over F_q (q prime) of one factor type.

    kind is "irreducible", "split" (two distinct roots) or "square".
    """
    squares = {(x * x) % q for x in range(1, q)}
    out = []
    for b in range(q):
        for c in range(q):
            disc = (b * b - 4 * c) % q
            if disc == 0:
                k = "square"
            elif disc in squares:
                k = "split"
            else:
                k = "irreducible"
            if k == kind:
                out.append(_prime_poly([c, b, 1]))
    return out


def _argv(*parts):
    return tuple(str(p) for p in parts)


def _cell(name, count, cmd, q, family, levels, suffix="", fmt="json", extra=(), moduli=(None,)):
    """A cell of group requests that differ only in level (and modulus).

    Everything that changes the cost of a request (subcommand, family,
    determinant suffix, output format, degree bound) is fixed by the cell;
    the seed only picks the level, or the modulus of F_9.
    """
    pool = []
    for modulus in moduli:
        for level in levels:
            group = family if level is None else "%s:%s" % (family, level)
            argv = [cmd, "--q", q]
            if modulus is not None:
                argv += ["--modulus", modulus]
            argv += ["--group", group + suffix, "--format", fmt]
            pool.append(_argv(*(argv + list(extra))))
    return Cell(name, count, pool)


SUFFIXES = ("", "!sq", "!one")
FORMATS = ("json", "table")
DEG1 = ("--deg-bound", "1")


# ------------------------------------------------------------------ search


def _search_cells():
    lin = _linear_levels
    cells = [
        # heavy: the witness-box loop at the largest boxes that fit a pass
        _cell("ellsearch-full-q11-one", 1, "ellsearch", 11, "full", [None], "!one"),
        _cell("ellsearch-gamma1-q9", 1, "ellsearch", 9, "gamma1", _ext_linear_levels(3),
              moduli=Q9_MODULI),
        _cell("parity-gamma1-q3-deg1", 1, "parity", 3, "gamma1", lin(3), extra=DEG1),
        _cell("ellsearch-full-q3-deg1", 1, "ellsearch", 3, "full", [None], extra=DEG1),
        # Nine requests of one cost just below the heavy ones, so the tail
        # percentile (ten requests beyond it) lands inside this block.
        _cell("ellsearch-gamma1-q7", 9, "ellsearch", 7, "gamma1", lin(7)),
        # medium
        _cell("ellsearch-full-q7-one", 1, "ellsearch", 7, "full", [None], "!one"),
        _cell("parity-gamma1-q7-one", 1, "parity", 7, "gamma1", lin(7), "!one", "table"),
        _cell("parity-gamma0-q5-one", 1, "parity", 5, "gamma0", lin(5), "!one"),
    ]
    for suffix in SUFFIXES:
        cells.append(_cell("ellsearch-full-q5" + suffix, 1, "ellsearch", 5, "full", [None], suffix))
        for cmd in ("ellsearch", "parity"):
            cells.append(_cell("%s-gamma1-q5%s" % (cmd, suffix), 1, cmd, 5, "gamma1", lin(5), suffix))
            cells.append(_cell("%s-full-q3%s" % (cmd, suffix), 1, cmd, 3, "full", [None], suffix))
            # light: most of the requests, so the median sits among them
            for fam in ("gamma1", "gamma0"):
                for fmt in FORMATS:
                    cells.append(_cell("%s-%s-q3%s-%s" % (cmd, fam, suffix, fmt), 2,
                                       cmd, 3, fam, lin(3), suffix, fmt))
    return cells


# ------------------------------------------------------------------- cusps

FAMILIES = ("gamma0", "gamma1", "gammaN")
QUADRATIC_KINDS = ("irreducible", "split", "square")


def _cusps_cells():
    ext = _ext_linear_levels
    quad = _quadratic_levels
    cells = [
        # heavy: linear levels over F_25 and F_27, quadratic levels at q = 5, 7
        _cell("gammaN-q25", 1, "cusps", 25, "gammaN", ext(5)),
        _cell("gammaN-q27", 1, "cusps", 27, "gammaN", ext(3)),
    ]
    # Quadratic levels of one factor type still differ in cost by up to a
    # fifth, so these cells fix the level and the seed picks the format.
    for name, count, q, fam, level in (
        ("gamma0-q5-irreducible", 1, 5, "gamma0", "T^2+2"),
        ("gammaN-q7-irreducible", 1, 7, "gammaN", "T^2+1"),
        ("gammaN-q5-split", 1, 5, "gammaN", "T^2+4"),
    ):
        cells.append(Cell(name, count, [a for f in FORMATS
                                        for a in _cell(name, 1, "cusps", q, fam, [level], fmt=f).pool]))
    # Below the four heavy requests, nine requests of about one cost (these
    # and full!one at q = 9), so the tail percentile (ten requests beyond it)
    # lands inside.
    cells.append(Cell("gamma0-q9", 8, [a for f in FORMATS for a in _cell(
        "gamma0-q9", 1, "cusps", 9, "gamma0", ext(3), fmt=f, moduli=Q9_MODULI).pool]))
    cells.append(_cell("full-q9!one", 1, "cusps", 9, "full", [None], "!one", moduli=Q9_MODULI))
    for suffix in SUFFIXES:
        fmt = "table" if suffix == "!sq" else "json"
        for q in (3, 5, 7):
            cells.append(_cell("full-q%d%s" % (q, suffix), 1, "cusps", q, "full", [None], suffix, fmt))
        for fam in FAMILIES:
            if fam != "gamma0" or suffix:
                cells.append(_cell("%s-q9%s" % (fam, suffix), 1, "cusps", 9, fam, ext(3),
                                   suffix, fmt, moduli=Q9_MODULI))
            for q, n in ((7, 1), (5, 2), (3, 2)):
                cells.append(_cell("%s-q%d%s" % (fam, q, suffix), n, "cusps", q, fam,
                                   _linear_levels(q), suffix, fmt))
    for fam in FAMILIES:
        for kind in QUADRATIC_KINDS:
            cells.append(_cell("%s-q3-%s" % (fam, kind), 1, "cusps", 3, fam, quad(3, kind)))
    return cells


# ------------------------------------------------------------------- forms

FORMS_FIELDS = (3, 5, 7, 9, 11, 13, 25, 27, 49, 81, 121, 125, 169, 243, 343, 729, 2187)


def _ring_cell(count, q, preset, lo, hi, fmts=("json",)):
    """sectionring requests whose --max-weight lies in [lo, hi]."""
    pool = [
        _argv("sectionring", "--q", q, "--preset", preset, "--max-weight", w, "--format", f)
        for w in _evens(lo, hi)
        for f in fmts
    ]
    name = "ring-%s-q%d-w%d-%d" % ("G0" if preset == "Gamma0T_2" else "GL", q, lo, hi)
    return Cell(name, count, pool)


def _evens(lo, hi):
    return range(lo, hi + 1, 2)


def _series(q, k, index, violate):
    """A series of 35 terms (c1*T + c0)*u^n, with n < 550 and 2n = k (mod q-1)
    except for one violating exponent when asked.  Every series of a field
    has the same shape, so the requests of a split cell cost the same."""
    rng = random.Random("%d:%d:%d:%d" % (q, k, index, violate))
    m = q - 1
    allowed = [n for n in range(550) if (2 * n - k) % m == 0]
    chosen = set(rng.sample(allowed, 35))
    if violate:
        chosen.add(rng.choice([n for n in range(550) if (2 * n - k) % m != 0]))
    p = 3 if q in (9, 27) else 5 if q == 25 else q
    terms = []
    for n in sorted(chosen):
        c0 = rng.randrange(1, p)
        if q == p:
            text = _prime_poly([c0, rng.randrange(1, p)])
        else:
            text = "%s*T+%d" % (_ext_const(rng.randrange(1, q - 1)), c0)
        terms.append("(%s)*u^%d" % (text, n))
    return "+".join(terms)


def _split_pool(q, k, violate, fmt, size=8):
    return [
        _argv("split", "--q", q, "--k", k, "--format", fmt, _series(q, k, i, violate))
        for i in range(size)
    ]


def _valence_pool(q, fmt):
    pool = []
    # profiles that satisfy the valence formula, and near misses
    for k, v_inf, v_e, other in (
        (q + 1, 1, 0, None),
        (q - 1, 0, 1, None),
        (q * q - 1, 0, 0, "1"),
        (2 * (q + 1), 2, 0, None),
        (q + 3, 1, 0, None),
        (q - 1, 0, 2, None),
        (2 * (q * q - 1), 0, 0, "1,1"),
        (4, 1, 1, "0"),
    ):
        argv = ["valence", "--q", q, "--k", k, "--v-inf", v_inf, "--v-e", v_e]
        if other is not None:
            argv += ["--v-other", other]
        pool.append(_argv(*(argv + ["--format", fmt])))
    return pool


MALFORMED = (
    ("cusps", "--q", "9", "--group", "gamma0:T+b"),
    ("cusps", "--q", "5", "--group", "gamma2:T"),
    ("cusps", "--q", "5", "--group", "gamma0"),
    ("cusps", "--q", "5", "--group", "full:T"),
    ("cusps", "--q", "5", "--group", "gamma0:T!idx3"),
    ("cusps", "--q", "7", "--group", "gamma1:T!cube"),
    ("cusps", "--q", "5", "--group", "gamma0:7*T"),
    ("cusps", "--q", "5", "--group", "gamma0:T^^2"),
    ("cusps", "--q", "5", "--group", "gamma1:3"),
    ("cusps", "--q", "3", "--group", "gamma0:a*T"),
    ("parity", "--q", "6", "--group", "full"),
    ("parity", "--q", "2", "--group", "full"),
    ("parity", "--q", "9", "--modulus", "1,1,1", "--group", "full"),
    ("parity", "--q", "9", "--modulus", "x", "--group", "full"),
    ("parity", "--q", "5", "--modulus", "1,0,1", "--group", "full"),
    ("ellsearch", "--q", "5", "--group", "gammaN:T"),
    ("ellsearch", "--q", "5", "--group", "gamma0:T^2+2"),
    ("ellsearch", "--q", "5", "--group", "full", "--format", "xml"),
    ("split", "--q", "5", "--k", "3", "u"),
    ("split", "--q", "5", "--k", "4", "(u^2"),
    ("split", "--q", "5", "--k", "4", "u^2++u^4"),
    ("split", "--q", "5", "--k", "4", ""),
    ("sectionring", "--q", "3", "--preset", "GL2A_2", "--max-weight", "7"),
    ("sectionring", "--q", "3", "--preset", "Gamma9", "--max-weight", "8"),
    ("dims", "--q", "5", "--k-max", "7"),
    ("dims", "--q", "5", "--k-max", "8", "--preset", "GL2A_2"),
    ("dims", "--q", "15", "--k-max", "8"),
    ("valence", "--q", "5", "--k", "4", "--v-other", "x"),
    ("valence", "--q", "5", "--k", "four"),
    ("nosuch", "--q", "5"),
)


def _forms_cells():
    ring = _ring_cell
    cells = [
        # Gamma0T_2 at q = 3, where the presentation engine does the work
        ring(1, 3, "Gamma0T_2", 2, 8), ring(1, 3, "Gamma0T_2", 10, 16, ("table",)),
        ring(1, 3, "Gamma0T_2", 18, 22), ring(1, 3, "Gamma0T_2", 24, 26, ("table",)),
        ring(1, 3, "Gamma0T_2", 28, 30), ring(1, 3, "Gamma0T_2", 32, 34),
        # From weight 38 up the run exhausts its work budget at weight 38 and
        # exits 3.  These requests all cost the same as the q = 3 rung at
        # weight 32 to 34 and, below the q = 7 rung, form the block the tail
        # percentile (ten requests beyond it) lands in.
        ring(10, 3, "Gamma0T_2", 38, 100, FORMATS),
        ring(1, 3, "GL2A_2", 2, 30), ring(1, 3, "GL2A_2", 32, 60, ("table",)),
        ring(1, 5, "Gamma0T_2", 2, 40),
        ring(1, 5, "GL2A_2", 2, 100, FORMATS),
        ring(1, 7, "Gamma0T_2", 2, 60, ("table",)),
    ]
    for i, q in enumerate(FORMS_FIELDS):
        fmt = FORMATS[i % 2]
        dims = [_argv("dims", "--q", q, "--k-max", k, "--format", fmt) for k in _evens(40, 48)]
        cells.append(Cell("dims-q%d" % q, 1, dims))
        cells.append(Cell("valence-q%d" % q, 1, _valence_pool(q, FORMATS[1 - i % 2])))
    for i, q in enumerate((3, 5, 7, 11, 13, 9, 25, 27)):
        cells.append(Cell("split-q%d" % q, 2, _split_pool(q, 4, False, FORMATS[i % 2])))
    for q in (5, 9, 27, 13):
        cells.append(Cell("split-bad-q%d" % q, 1, _split_pool(q, 4, True, "json")))
    cells.append(Cell("malformed", 10, [_argv(*a) for a in MALFORMED]))
    return cells


_CELLS = {"search": _search_cells, "cusps": _cusps_cells, "forms": _forms_cells}


def cells(workload):
    if workload not in _CELLS:
        raise ValueError("unknown workload %r" % (workload,))
    return _CELLS[workload]()


def pools(workload):
    """Every argv any seed can draw for the workload, in a stable order."""
    return [argv for cell in cells(workload) for argv in cell.pool]


def passes(seconds):
    """The number of passes a run of `seconds` makes."""
    return max(MIN_PASSES, int(seconds // PASS_SECONDS))


def requests(workload, seed):
    """The pass for one seed: `count` distinct argv lists from each cell's
    pool, in a seeded order."""
    rng = random.Random("%s:%d" % (workload, seed))
    out = []
    for cell in cells(workload):
        out.extend(rng.sample(cell.pool, cell.count))
    rng.shuffle(out)
    if len(set(out)) != len(out):
        raise AssertionError("a pass repeats an argv")
    return [list(argv) for argv in out]


def key(argv):
    """The golden-record key of an argv list."""
    return shlex.join(argv)
