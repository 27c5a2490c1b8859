"""End-to-end command-line tests: goldens, JSON payloads, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import drinfeld
from drinfeld import PolyA, cli
from drinfeld.cli import SECTIONRING_WEIGHT_MAX, main
from drinfeld.ffarith import ParseError, parse_int


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["schema"] == "drinfeld/1"
    return payload


def src_env():
    """The environment of a fresh interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(drinfeld.__file__)))
    return dict(os.environ, PYTHONPATH=src)


# ----------------------------------------------------------------- parity


def test_parity_json_non_square_with_witness(capsys):
    payload = run_json(
        capsys, "parity", "--q", "7", "--group", "gamma1:4*T+3"
    )
    assert payload["command"] == "parity"
    assert payload["q"] == 7
    assert payload["classification"] == "NonSquare"
    assert payload["bound"] == 0
    w = payload["witness"]
    assert w["matrix"] == [["T", "1"], ["6*T+1", "6"]]
    assert w["det"] == "6"
    assert w["det_is_square"] is False
    assert w["quad_b"]
    assert w["quad_c"]


def test_parity_table_non_square(capsys):
    code, out, err = run(capsys, "parity", "--q", "7", "--group", "gamma1:4*T+3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "classification: NonSquare"
    assert lines[1].startswith("witness: ")
    assert "det: 6 (non-square)" in lines
    assert any(line.startswith("quadratic: z^2 + ") for line in lines)


def test_parity_of_a_square_determinant_group(capsys):
    payload = run_json(capsys, "parity", "--q", "3", "--group", "gamma0:T!sq")
    assert payload["classification"] == "Square"
    assert payload["witness"] is None


@pytest.mark.parametrize("command", ["parity", "ellsearch"])
@pytest.mark.parametrize("bound", ["-1", "-3"])
def test_negative_degree_bound_exits_2(capsys, command, bound):
    code, out, err = run(
        capsys, command, "--q", "3", "--group", "gamma0:T", "--deg-bound", bound
    )
    assert code == 2
    assert out == ""
    assert "got %s" % bound in err


@pytest.mark.parametrize(
    "argv",
    [
        ("parity", "--q", "5", "--group", "gamma0", "--level", "T"),
        ("cusps", "--q", "5", "--group", "gamma0", "--level", "T"),
        ("ellsearch", "--q", "5", "--group", "gamma0", "--level", "T"),
        ("cusps", "--q", "5", "--group", "gamma0:T", "--level", "T"),
        ("cusps", "--q", "5", "--group", "full", "--level", ""),
        ("dims", "--q", "5", "--k-max", "8", "--preset", "Gamma0T_2"),
        ("dims", "--q", "5", "--k-max", "8", "--preset", "GL2A_2"),
    ]
    + [
        (command, "--q", "9", "--modulus", modulus, *rest)
        for command, *rest in (
            ("dims", "--k-max", "4"),
            ("valence", "--k", "4"),
            ("sectionring", "--preset", "Gamma0T_2", "--max-weight", "4"),
        )
        for modulus in ("1,0,1", "")
    ]
    + [
        ("valence", "--q", "9", "--modulus", "1,1,1", "--k", "4"),
        ("valence", "--q", "5", "--modulus", "1,0,1", "--k", "4"),
    ],
)
def test_level_and_dims_preset_are_no_options(capsys, monkeypatch, argv):
    # a group names its level after the colon, dims has one table, and the
    # output of dims, valence and sectionring depends on q alone: the parser
    # refuses each of these options before q is checked or a field is built
    def no_field(*args, **kwargs):
        raise AssertionError("field work for a refused option")

    monkeypatch.setattr("drinfeld.cli.Fq", no_field)
    monkeypatch.setattr("drinfeld.cli._units", no_field)
    assert run(capsys, *argv)[:2] == (2, "")


# ------------------------------------------------------------------- dims


def test_dims_table_golden(capsys):
    payload = run_json(capsys, "dims", "--q", "5", "--k-max", "8")
    rows = [(r["k"], r["l"], r["dim"], r["h0"]) for r in payload["rows"]]
    assert rows == [
        (2, 1, 1, 1),
        (2, 3, 0, 0),
        (4, 0, 2, 2),
        (4, 2, 1, 1),
        (6, 1, 2, 2),
        (6, 3, 1, 1),
        (8, 0, 3, 3),
        (8, 2, 2, 2),
    ]
    assert all(r["agree"] for r in payload["rows"])
    code, out, _ = run(capsys, "dims", "--q", "5", "--k-max", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k  l  dim  h0  agree"
    assert len(lines) == 9
    assert all(line.endswith("yes") for line in lines[1:])


@pytest.mark.parametrize("q", [3, 13, 169, 2187])
def test_dims_checks_q_once_per_request(capsys, monkeypatch, q):
    # cli._units is the one check: the rows read only the checked q
    calls = []
    factor = drinfeld.ffarith._factor_prime_power

    def counted(n):
        calls.append(n)
        return factor(n)

    monkeypatch.setattr(drinfeld.ffarith, "_factor_prime_power", counted)
    monkeypatch.setattr(drinfeld.weights, "_factor_prime_power", counted)
    assert run(capsys, "dims", "--q", str(q), "--k-max", "48")[0] == 0
    assert calls == [q]


def test_dims_rejects_other_presets_and_odd_bounds(capsys):
    code, out, _ = run(
        capsys, "dims", "--q", "5", "--k-max", "8", "--preset", "GL2A_2"
    )
    assert (code, out) == (2, "")
    code, _, _ = run(capsys, "dims", "--q", "5", "--k-max", "7")
    assert code == 2


# ------------------------------------------------------------ sectionring


def test_sectionring_json_golden_for_gamma0_q3(capsys):
    payload = run_json(
        capsys,
        "sectionring",
        "--q",
        "3",
        "--preset",
        "Gamma0T_2",
        "--max-weight",
        "12",
    )
    assert payload["divisor"] == "2(0)"
    assert payload["generators"] == [
        {"weight": 2, "section": "t^-2"},
        {"weight": 2, "section": "t^-1"},
        {"weight": 2, "section": "1"},
    ]
    assert payload["relations"] == [
        {
            "weight": 4,
            "monomial_combination": [
                {"exponents": [1, 0, 1], "coeff": "-1"},
                {"exponents": [0, 2, 0], "coeff": "1"},
            ],
        }
    ]


def test_sectionring_table_for_the_free_full_group_ring(capsys):
    code, out, _ = run(
        capsys,
        "sectionring",
        "--q",
        "5",
        "--preset",
        "GL2A_2",
        "--max-weight",
        "12",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "divisor: 2/3(1) + -1/2(inf)"
    assert lines[1].startswith("generator x0: weight 4")
    assert lines[2].startswith("generator x1: weight 6")
    assert lines[-1] == "relations: none"


def test_sectionring_relation_line_for_gamma0_q3(capsys):
    code, out, _ = run(
        capsys,
        "sectionring",
        "--q",
        "3",
        "--preset",
        "Gamma0T_2",
        "--max-weight",
        "8",
    )
    assert code == 0
    assert "relation (weight 4): (-1)*x0*x2 + (1)*x1^2 = 0" in out.splitlines()


def test_sectionring_exit_codes(capsys):
    code, _, err = run(
        capsys,
        "sectionring",
        "--q",
        "3",
        "--preset",
        "Gamma0T_2",
        "--max-weight",
        "400",
    )
    assert code == 3
    assert err.startswith("error:")
    code, _, _ = run(
        capsys, "sectionring", "--q", "3", "--preset", "Gamma0T_2",
        "--max-weight", "7",
    )
    assert code == 2


# ------------------------------------------------------------------ split


def test_split_table_golden(capsys):
    code, out, _ = run(capsys, "split", "--q", "5", "--k", "4", "u^2+3*u^4")
    assert code == 0
    assert out.splitlines() == [
        "f1 (type 2): u^2",
        "f2 (type 0): 3*u^4",
    ]


def test_split_json_golden(capsys):
    payload = run_json(capsys, "split", "--q", "5", "--k", "4", "u^2+3*u^4")
    assert payload["f1"] == {
        "type": 2,
        "series": "u^2",
        "terms": [{"n": 2, "coeff": "1"}],
    }
    assert payload["f2"] == {
        "type": 0,
        "series": "3*u^4",
        "terms": [{"n": 4, "coeff": "3"}],
    }


def test_split_exponent_is_bounded_before_the_series_is_built(capsys):
    # 'u^2000000' would otherwise allocate two million coefficients first
    for series in ("u^2000000", "u^4097"):
        code, out, err = run(capsys, "split", "--q", "5", "--k", "4", series)
        assert code == 2
        assert out == ""
        assert "USERIES_EXP_MAX = 4096" in err
    code, out, _ = run(capsys, "split", "--q", "5", "--k", "4", "u^4096")
    assert code == 0


def test_split_rejects_a_negative_weight(capsys):
    code, out, err = run(capsys, "split", "--q", "5", "--k", "-4", "u^2")
    assert code == 2
    assert out == ""
    assert "weight k must be nonnegative" in err


def test_split_support_violation_exits_4(capsys):
    code, _, err = run(capsys, "split", "--q", "5", "--k", "4", "u")
    assert code == 4
    assert "unsupported exponent 1" in err
    code, _, _ = run(capsys, "split", "--q", "5", "--k", "3", "u")
    assert code == 2


def test_split_reads_whitespace_as_a_token_separator(capsys):
    # With the spaces deleted first, "1 2*u^2" would print 12*u^2 with
    # exit 0, and "u^1 0" would exit 4 on the exponent 10.
    for series in ("1 2*u^2", "u^1 0"):
        code, out, err = run(capsys, "split", "--q", "13", "--k", "4", series)
        assert (code, out) == (2, "")
        assert "expected '+' or '-' between terms" in err
    code, out, _ = run(capsys, "split", "--q", "5", "--k", "4", "u^2\t+ 3 * u^4")
    assert code == 0
    assert out == run(capsys, "split", "--q", "5", "--k", "4", "u^2+3*u^4")[1]


# ------------------------------------------------------------------ cusps


def test_cusps_table_golden(capsys):
    code, out, _ = run(capsys, "cusps", "--q", "5", "--group", "gamma0:T")
    assert code == 0
    assert out.splitlines() == [
        "count: 2",
        "(0, 1)  orbit size 20",
        "(1, 0)  orbit size 4",
        "total primitive vectors: 24",
    ]


def test_cusps_json_payload(capsys):
    payload = run_json(capsys, "cusps", "--q", "5", "--group", "gamma0:T")
    assert payload["count"] == 2
    assert payload["reps"] == [
        {"u": "0", "v": "1", "orbit_size": 20},
        {"u": "1", "v": "0", "orbit_size": 4},
    ]
    assert payload["total_primitive_vectors"] == 24


def test_cusps_work_bounds_name_the_size_and_the_limit(capsys):
    code, out, err = run(capsys, "cusps", "--q", "27", "--group", "gamma0:T^2")
    assert (code, out) == (3, "")
    assert "residue space too large: 27^4 pairs exceed" in err
    assert "ELLIPTIC_BOX_LIMIT = 500000" in err
    code, out, err = run(capsys, "cusps", "--q", "27", "--group", "gamma0:T^2+1")
    assert (code, out) == (3, "")
    assert "27^4 pairs exceed" in err
    code, out, err = run(capsys, "cusps", "--q", "3", "--group", "gamma0:T^3")
    assert (code, out) == (3, "")
    assert "CUSP_LEVEL_DEG_LIMIT = 2: the level has degree 3" in err


# q = 3 quadratic levels of each factor type (irreducible, split, square),
# F_9 under both moduli, a linear level at q = 27 and the full group
_CUSPS_REQUESTS = (
    [
        ("--q", "3", "--group", "%s:%s" % (family, level))
        for family in ("gammaN", "gamma1", "gamma0")
        for level in ("T^2+1", "T^2+2", "T^2")
    ]
    + [("--q", "9", "--modulus", m, "--group", "gamma0:T+1") for m in ("1,0,1", "2,1,1")]
    + [("--q", "27", "--group", "gammaN:T+1"), ("--q", "7", "--group", "full!one")]
)


@pytest.mark.parametrize("argv", _CUSPS_REQUESTS, ids=" ".join)
def test_a_cusps_request_does_no_polynomial_arithmetic_after_parsing(capsys, monkeypatch, argv):
    calls = dict.fromkeys(("__divmod__", "gcd", "__mul__"), 0)
    for name in calls:

        def counted(*args, name=name, original=getattr(PolyA, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(PolyA, name, counted)
    parse_group = cli.parse_group

    def parsed(*args):
        G = parse_group(*args)
        calls.update(dict.fromkeys(calls, 0))
        return G

    monkeypatch.setattr(cli, "parse_group", parsed)
    code, out, _ = run(capsys, "cusps", *argv)
    assert code == 0 and out.startswith("count: ")
    assert calls == {"__divmod__": 0, "gcd": 0, "__mul__": 0}


def test_cusps_accepts_an_extension_field_modulus(capsys):
    payload = run_json(
        capsys, "cusps", "--q", "9", "--modulus", "1,0,1", "--group", "full"
    )
    assert payload["count"] == 1
    assert payload["total_primitive_vectors"] == 80


# ---------------------------------------------------------------- valence


def test_valence_known_answers(capsys):
    code, out, _ = run(capsys, "valence", "--q", "5", "--k", "4", "--v-e", "1")
    assert (code, out.strip()) == (0, "holds: true")
    code, out, _ = run(capsys, "valence", "--q", "5", "--k", "6", "--v-inf", "1")
    assert (code, out.strip()) == (0, "holds: true")
    code, out, _ = run(capsys, "valence", "--q", "5", "--k", "4", "--v-inf", "1")
    assert (code, out.strip()) == (0, "holds: false")
    payload = run_json(
        capsys, "valence", "--q", "5", "--k", "24", "--v-other", "1"
    )
    assert payload["holds"] is True
    assert payload["v_other"] == [1]


def test_valence_rejects_malformed_orders(capsys):
    code, _, err = run(
        capsys, "valence", "--q", "5", "--k", "4", "--v-other", "x"
    )
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, field",
    [
        (("--k", "0", "--v-inf", "-2", "--v-e", "3"), "v_inf"),
        (("--k", "4", "--v-e", "-1"), "v_e"),
        (("--k", "-24", "--v-other=-1"), "k"),
        (("--k", "24", "--v-other=1,-1"), "v_other"),
    ],
)
def test_valence_rejects_negative_orders(capsys, argv, field):
    code, out, err = run(capsys, "valence", "--q", "5", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: %s " % field)
    assert "must be nonnegative" in err


# -------------------------------------------------------------- ellsearch


def test_ellsearch_count_and_payload(capsys):
    payload = run_json(capsys, "ellsearch", "--q", "3", "--group", "gamma0:T")
    assert payload["count"] == 16
    assert len(payload["witnesses"]) == 16
    for w in payload["witnesses"]:
        assert set(w) == {"matrix", "det", "det_is_square", "quad_b", "quad_c"}
    code, out, _ = run(capsys, "ellsearch", "--q", "3", "--group", "gamma0:T")
    assert code == 0
    assert out.splitlines()[0] == "count: 16"


def test_ellsearch_is_deterministic(capsys):
    first = run(capsys, "ellsearch", "--q", "5", "--group", "gamma0:T")
    second = run(capsys, "ellsearch", "--q", "5", "--group", "gamma0:T")
    assert first == second


def test_ellsearch_rejects_identity_congruence_groups(capsys):
    code, _, err = run(capsys, "ellsearch", "--q", "3", "--group", "gammaN:T")
    assert code == 2
    assert err.startswith("error:")


# ------------------------------------------------------- shared behaviors


def test_every_command_carries_the_schema_and_command_keys(capsys):
    invocations = {
        "parity": ("parity", "--q", "3", "--group", "full"),
        "dims": ("dims", "--q", "3", "--k-max", "4"),
        "sectionring": (
            "sectionring", "--q", "3", "--preset", "GL2A_2", "--max-weight", "8",
        ),
        "split": ("split", "--q", "3", "--k", "2", "u"),
        "cusps": ("cusps", "--q", "3", "--group", "full"),
        "valence": ("valence", "--q", "3", "--k", "0"),
        "ellsearch": ("ellsearch", "--q", "3", "--group", "full"),
    }
    for name, argv in invocations.items():
        payload = run_json(capsys, *argv)
        assert payload["command"] == name
        assert payload["q"] == 3


def test_usage_and_validation_exit_codes(capsys):
    assert run(capsys, "parity", "--q", "5", "--group", "bogus")[0] == 2
    assert run(capsys, "parity", "--q", "4", "--group", "full")[0] == 2
    assert run(capsys, "cusps", "--q", "5", "--modulus", "a,b",
               "--group", "full")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "parity", "--q", "5", "--group", "full",
               "--no-such-flag")[0] == 2


def test_field_size_is_bounded_before_any_work(capsys):
    # a 10-digit prime would otherwise be trial-divided and tabulated
    code, out, err = run(capsys, "parity", "--q", "1000000007", "--group", "full")
    assert code == 2
    assert out == ""
    assert "65536" in err


def _library_refusal(call, q):
    """The message of the ValueError that call(q) raises, or None."""
    try:
        call(q)
    except ValueError as e:
        return str(e)
    return None


_Q_ENTRIES = [
    lambda q: drinfeld.type_solutions(4, q),
    lambda q: drinfeld.decompose_gamma2(4, 2, q),
    lambda q: drinfeld.dim_gamma0T(4, 0, q),
    lambda q: drinfeld.valence_check(drinfeld.VanishingProfile(2), q),
    lambda q: drinfeld.h0_weighted("Gamma0T_2", q, 4, 0),
]
_Q_REQUESTS = [
    ("dims", "--k-max", "2"),
    ("valence", "--k", "2"),
    # the box bound refuses the search with exit 3 once the field is built
    ("parity", "--group", "full", "--deg-bound", "99"),
]


@pytest.mark.parametrize("q", [*range(-2, 201), 59049, 65535, 65537, 65538, 2**16])
def test_every_entry_refuses_a_q_with_the_same_message_or_accepts_it(capsys, q):
    # q has one refusal, `_factor_prime_power`, so its text does not depend
    # on the entry: the field, each weight function and the CLI agree
    refusals = [_library_refusal(call, q) for call in _Q_ENTRIES]
    if q <= 200:
        refusals.append(_library_refusal(drinfeld.Fq, q))
    for command, *rest in _Q_REQUESTS:
        code, out, err = run(capsys, command, "--q=%d" % q, *rest)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.endswith("\n")
            refusals.append(err[len("error: "):-1])
        else:
            refusals.append(None)
    assert len(set(refusals)) == 1, refusals
    if refusals[0] is not None:
        assert "prime power" in refusals[0] or "exceeds the supported maximum" in refusals[0]


@pytest.mark.parametrize("command", ["parity", "cusps", "ellsearch", "split"])
@pytest.mark.parametrize(
    "q, modulus, message",
    [
        ("9", "1,1,1", "modulus is reducible over F_3"),
        ("9", "1,0,0,1", "modulus must be monic of degree e"),
        ("9", "1,0,2", "modulus must be monic of degree e"),
        ("5", "1,0,1", "modulus only applies to non-prime q"),
    ],
)
def test_the_field_commands_refuse_a_bad_modulus(capsys, command, q, modulus, message):
    rest = ("--k", "4", "u^2") if command == "split" else ("--group", "full")
    code, out, err = run(capsys, command, "--q", q, "--modulus", modulus, *rest)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_q_only_commands_check_q_without_building_the_field(capsys, monkeypatch):
    def no_field(*args, **kwargs):
        raise AssertionError("field built for a command that reads only q")

    monkeypatch.setattr("drinfeld.cli.Fq", no_field)
    assert run(capsys, "dims", "--q", "2187", "--k-max", "4")[0] == 0
    assert run(capsys, "valence", "--q", "2187", "--k", "4")[0] == 0
    code, out, err = run(capsys, "dims", "--q", "15", "--k-max", "4")
    assert (code, out, err) == (2, "", "error: q = 15 is not a prime power\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("cusps", "--q", "9", "--modulus", "", "--group", "full"),
        ("parity", "--q", "9", "--modulus", "", "--group", "full"),
        ("ellsearch", "--q", "9", "--modulus", "", "--group", "full"),
        ("split", "--q", "9", "--modulus", "", "--k", "4", "u^2"),
    ],
    ids=lambda argv: argv[0],
)
def test_an_empty_modulus_is_a_parse_error_not_an_absent_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "modulus must be comma-separated integers" in err


def test_level_degree_is_bounded_before_any_coefficients_are_built(capsys):
    # 'T^3000000' would otherwise build three million coefficients first
    code, out, err = run(capsys, "parity", "--q", "5", "--group", "gamma0:T^3000000")
    assert code == 2
    assert out == ""
    assert "POLY_DEG_MAX = 4096" in err


_LONG_LITERAL = "1" * 5000


@pytest.mark.parametrize(
    "argv, at",
    [
        (("parity", "--q", "5", "--group", "gamma0:T+" + _LONG_LITERAL), 2),
        (("split", "--q", "5", "--k", "4", "u^2+" + _LONG_LITERAL + "*u^4"), 4),
        (("split", "--q", "5", "--k", "4", "u^" + _LONG_LITERAL), 2),
        (("cusps", "--q", "9", "--modulus", "1,0," + _LONG_LITERAL, "--group", "full"), 4),
        (("valence", "--q", "5", "--k", "4", "--v-other", "0, " + _LONG_LITERAL), 3),
        (("cusps", "--q", "5", "--group", "gamma0:T!idx" + _LONG_LITERAL), 12),
    ],
    ids=["polynomial", "coefficient", "exponent", "modulus", "v-other", "idx"],
)
def test_a_long_integer_literal_is_refused_with_its_position(capsys, argv, at):
    # int() would refuse 5000 digits with a text naming an interpreter setting
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.endswith("INT_DIGITS_MAX = 100 (at position %d)\n" % at)
    assert "set_int_max_str_digits" not in err
    assert _LONG_LITERAL[:200] not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("parity", "--q", _LONG_LITERAL, "--group", "full"),
        ("split", "--q", "5", "--k", _LONG_LITERAL, "u^2"),
        ("valence", "--q", "5", "--k", "4", "--v-inf", _LONG_LITERAL),
        ("valence", "--q", "5", "--k", "4", "--v-e", _LONG_LITERAL),
        ("ellsearch", "--q", "5", "--group", "full", "--deg-bound", _LONG_LITERAL),
        ("dims", "--q", "5", "--k-max", _LONG_LITERAL),
        ("sectionring", "--q", "5", "--preset", "GL2A_2", "--max-weight", _LONG_LITERAL),
    ],
    ids=["q", "k", "v-inf", "v-e", "deg-bound", "k-max", "max-weight"],
)
def test_a_long_int_option_is_refused_without_echoing_its_digits(capsys, argv):
    option = argv[argv.index(_LONG_LITERAL) - 1]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "argument %s: integer literal of 5000 digits exceeds the supported maximum" % option in err
    assert err.endswith("INT_DIGITS_MAX = 100 (at position 0)\n")
    assert _LONG_LITERAL[:200] not in err
    assert len(err) < 1000


def test_int_options_still_read_signs_and_spaces_and_refuse_other_text(capsys):
    plain = run(capsys, "valence", "--q", "5", "--k", "4", "--v-inf", "0", "--format", "json")
    spaced = run(capsys, "valence", "--q", "5", "--k", " +4 ", "--v-inf=-0", "--format", "json")
    assert spaced == plain
    assert json.loads(plain[1])["k"] == 4
    for bad in ("x", "1.5", "1_0", "4-", ""):
        code, out, err = run(capsys, "valence", "--q", "5", "--k", bad)
        assert (code, out) == (2, "")
        assert "argument --k: invalid int value (at position 0)" in err


@pytest.mark.parametrize(
    "group, message",
    [
        ("gamma0:T!idx" + "x" * 5000, "malformed determinant suffix 'idxxxxxxxxxxxxxx'... (at position 12)"),
        ("gamma0:T!" + "x" * 5000, "unknown determinant suffix 'xxxxxxxxxxxxxxxx'... (at position 8)"),
        ("gamma0:T!idx2x", "malformed determinant suffix 'idx2x' (at position 12)"),
        ("gamma0:T!wat", "unknown determinant suffix 'wat' (at position 8)"),
    ],
    ids=["long-idx", "long-unknown", "short-idx", "short-unknown"],
)
def test_a_bad_determinant_suffix_is_shown_by_position_and_a_short_prefix(
    capsys, group, message
):
    code, out, err = run(capsys, "cusps", "--q", "5", "--group", group)
    assert (code, out) == (2, "")
    assert err == "error: %s\n" % message
    assert len(err.encode()) < 200


def test_dims_k_max_is_bounded_before_the_table_is_built(capsys):
    code, out, err = run(capsys, "dims", "--q", "5", "--k-max", "1002")
    assert code == 2
    assert out == ""
    assert "DIMS_K_MAX = 1000" in err
    code, out, _ = run(capsys, "dims", "--q", "5", "--k-max", "1000")
    assert code == 0
    assert len(out.splitlines()) == 1 + 1000


def test_sectionring_max_weight_is_bounded_before_the_field_is_built(
    capsys, monkeypatch
):
    # acceptance 5 truncates at 4(q+1); 65521 is the largest odd q <= Q_MAX
    assert SECTIONRING_WEIGHT_MAX >= 4 * (65521 + 1)

    def no_field(*args, **kwargs):
        raise AssertionError("field built for a rejected weight")

    monkeypatch.setattr("drinfeld.cli.Fq", no_field)
    code, out, err = run(
        capsys, "sectionring", "--q", "65521", "--preset", "GL2A_2",
        "--max-weight", str(SECTIONRING_WEIGHT_MAX + 2),
    )
    assert code == 2
    assert out == ""
    assert "SECTIONRING_WEIGHT_MAX = %d" % SECTIONRING_WEIGHT_MAX in err


def test_sectionring_at_the_weight_limit_exits_3_promptly(capsys):
    # one weight-2 generator: each degree's monomial is found directly, so
    # the budget trips after 25,000 degrees, not after a quadratic walk
    start = time.perf_counter()
    code, out, err = run(
        capsys, "sectionring", "--q", "65521", "--preset", "Gamma0T_2",
        "--max-weight", str(SECTIONRING_WEIGHT_MAX),
    )
    assert code == 3
    assert out == ""
    assert "presentation work budget exceeded" in err
    assert "weight 50002: spent 50001 of PRESENTATION_WORK_BUDGET = 50000" in err
    assert time.perf_counter() - start < 20.0


def test_witness_box_bound_is_checked_without_the_box_size(capsys):
    # (5^4000001)^4 would be a nine-million-digit integer
    start = time.perf_counter()
    code, out, err = run(
        capsys, "parity", "--q", "5", "--group", "full", "--deg-bound", "4000000"
    )
    assert code == 3
    assert out == ""
    assert "box too large" in err
    assert "5^16000004 candidates exceed ELLIPTIC_BOX_LIMIT = 500000" in err
    assert time.perf_counter() - start < 1.0


def test_sectionring_presets_need_no_witness_search_at_large_q(capsys):
    code, out, _ = run(
        capsys, "sectionring", "--q", "27", "--preset", "GL2A_2", "--max-weight", "20"
    )
    assert code == 0
    assert out.splitlines()[0] == "divisor: 13/14(1) + -12/13(inf)"


# ------------------------------------------------------ one process, many


def test_one_process_answers_each_request_as_a_fresh_interpreter(capsys):
    # a usage error, a bound given and then left to its default, and other
    # subcommands in turn must each print and exit as they do in a process
    # of their own
    requests = [
        ["parity", "--q", "3", "--group", "full", "--deg-bound", "x"],
        ["parity", "--q", "3", "--group", "gamma1:T+1", "--deg-bound", "1",
         "--format", "json"],
        ["parity", "--q", "3", "--group", "gamma1:T+1", "--format", "json"],
        ["cusps", "--q", "5", "--group", "gamma0:T"],
        ["dims", "--q", "3", "--k-max", "6"],
        ["split", "--q", "5", "--k", "4", "u^2+3*u^4"],
    ]
    in_process = []
    for argv in requests:
        code = main(list(argv))
        in_process.append((code, capsys.readouterr().out))
    fresh = []
    for argv in requests:
        proc = subprocess.run(
            [sys.executable, "-m", "drinfeld.cli", *argv],
            env=src_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        fresh.append((proc.returncode, proc.stdout))
    assert [code for code, _ in in_process] == [2, 0, 0, 0, 0, 0]
    assert json.loads(in_process[2][1])["deg_bound"] == 0
    assert in_process == fresh


def test_importing_the_cli_loads_no_dataclasses():
    # the result records are named tuples: the import pulls in neither
    # dataclasses nor the inspect machinery it brings along
    probe = (
        "import sys, drinfeld.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=src_env(), stdout=subprocess.PIPE, text=True, check=True,
    )
    assert proc.stdout == "[]\n"


# ------------------------------------------------- one result, two formats

# one request per subcommand, and a section ring with and without relations
_TABLES = {
    "parity": cli._parity_table,
    "dims": cli._dims_table,
    "sectionring": cli._sectionring_table,
    "split": cli._split_table,
    "cusps": cli._cusps_table,
    "valence": cli._valence_table,
    "ellsearch": cli._ellsearch_table,
}
_ROUND_TRIPS = [
    ("parity", "--q", "7", "--group", "gamma1:4*T+3"),
    ("parity", "--q", "3", "--group", "gamma0:T!sq"),
    ("dims", "--q", "5", "--k-max", "8"),
    ("sectionring", "--q", "3", "--preset", "Gamma0T_2", "--max-weight", "12"),
    ("sectionring", "--q", "5", "--preset", "GL2A_2", "--max-weight", "12"),
    ("split", "--q", "5", "--k", "4", "u^2+3*u^4"),
    ("cusps", "--q", "9", "--modulus", "1,0,1", "--group", "gamma0:T^2"),
    ("valence", "--q", "5", "--k", "4", "--v-e", "1", "--v-other", "0,1"),
    ("ellsearch", "--q", "3", "--group", "gamma1:T+1", "--deg-bound", "1"),
]


@pytest.mark.parametrize("argv", _ROUND_TRIPS, ids=" ".join)
def test_the_table_is_rendered_from_the_json_payload(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = run_json(capsys, *argv)
    assert out and "".join(line + "\n" for line in _TABLES[argv[0]](payload)) == out


# ------------------------------------------------------------ closed pipe


def test_a_closed_pipe_exits_1_without_a_traceback():
    # the JSON witness list is about 200 kB, far beyond what the pipe
    # buffers, so writing goes on after the reader has closed its end
    proc = subprocess.Popen(
        [sys.executable, "-m", "drinfeld.cli", "ellsearch", "--q", "7",
         "--group", "full", "--format", "json"],
        env=src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err


# ------------------------------------------------------------------ fuzzing
#
# Random argv over every subcommand.  Each option takes a well-formed value
# or, about one time in eight, a malformed one; None leaves the option out.
# q is drawn from a few small fields and malformed values, so no large
# field is built.

_GROUP_OPTIONS = {
    "--group": (
        ["full", "full!one", "gamma0:T", "gamma0:T!sq", "gamma1:T+1", "gammaN:T",
         "gamma1:2*T^2+1", "gamma0:T^2", "gamma0:T!idx2"],
        [None, "", "gamma0", "gamma0:", "gammaN", "gamma0:T!", "bogus",
         "gamma1:u", "gamma0:T^3", "gamma0:a*T"],
    ),
    # a group names its level after the colon; --level is no option
    "--level": ([None], ["T", "T^2+1", "", "T^", "1 2", "(T)", "a*T+1", "T^3"]),
}
_BOUNDS = {"--deg-bound": ([None, "0"], ["-1", "99", "x"])}
_WEIGHTS = (["0", "2", "4", "12", "40"], [None, "-2", "3", "262150", "x", ""])
_PRESETS = (["Gamma0T_2", "GL2A_2"], [None, "bogus"])
_COMMANDS = {
    "parity": dict(_GROUP_OPTIONS, **_BOUNDS),
    "ellsearch": dict(_GROUP_OPTIONS, **_BOUNDS),
    "cusps": _GROUP_OPTIONS,
    # dims has the one Gamma0T_2 table; --preset is no option of it
    "dims": {"--preset": ([None], ["Gamma0T_2", "GL2A_2", "bogus"]), "--k-max": _WEIGHTS},
    "sectionring": {"--preset": _PRESETS, "--max-weight": _WEIGHTS},
    "split": {
        "--k": _WEIGHTS,
        "": (  # the series, a positional argument
            ["u^2+3*u^4", "(T+1)*u^2 - 2", "((a))*u^4", "u^2\t+u^4", "u", "0"],
            [None, "1 2*u^2", "u^1 0", "(T+(1))*u^2", "u^4097", "", "-", "2u", "u*2"],
        ),
    },
    "valence": {
        "--k": _WEIGHTS,
        "--v-inf": ([None, "0", "2"], ["-1", "x"]),
        "--v-e": ([None, "0", "1"], ["-1", ""]),
        "--v-other": ([None, "0,1", "2"], ["", "-1", "x", "1,,2"]),
    },
}
_COMMON = {
    "--q": (["3", "5", "9"], [None, "4", "1", "-3", "x", "", "65537", "1000000007"]),
    # a modulus is only for q = 9, so it is counted as malformed
    "--modulus": ([None], ["1,0,1", "2,1", "2,2,1", "1,1", "", "x"]),
    "--format": ([None, "table", "json"], ["xml"]),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    for flag, (valid, malformed) in sorted(dict(_COMMON, **_COMMANDS[command]).items()):
        value = draw(st.sampled_from(malformed if draw(st.integers(0, 7)) == 7 else valid))
        if value is not None:
            argv += [flag, value] if flag else [value]
    return argv


def test_random_argv_exits_cleanly():
    @settings(derandomize=True, max_examples=1200, deadline=None)
    @given(_argv())
    def check(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3, 4), argv
        if code:
            assert out.getvalue() == "", argv

    check()


# ------------------------------------------------------ the reader's oracle
#
# argparse, built from cli's option table, is the reference for the reader:
# for every argv the two give the same exit code, the same stdout but for
# help, the same stderr (argparse's usage line unwrapped) and, where both
# read argv, the same namespace.


def _int_type(text):
    try:
        return parse_int(text, 0, "invalid int value")
    except ParseError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _reference_parser():
    parser = argparse.ArgumentParser(prog="drinfeld")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, summary, options) in cli.COMMANDS.items():
        sp = sub.add_parser(command, help=summary)
        for name, (convert, default, text) in options.items():
            kwargs = {"help": text}
            if convert is parse_int:
                kwargs["type"] = _int_type
            elif convert is not str:
                kwargs["choices"] = convert
            if name[0] == "-":
                if default is cli._REQUIRED:
                    kwargs["required"] = True
                else:
                    kwargs["default"] = default
            sp.add_argument(name, **kwargs)
        sp.set_defaults(func=handler)
    return parser


_REFERENCE = _reference_parser()


def _captured(call, argv):
    """call(argv) with its output captured: (its result or the code of the
    SystemExit it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(list(argv))
        except SystemExit as e:
            result = e.code
    return result, out.getvalue(), err.getvalue()


def _same_as_argparse(argv):
    saved, cli._read = cli._read, lambda argv: (_REFERENCE.parse_args(argv), [])
    try:
        expected = _captured(main, argv)
    finally:
        cli._read = saved
    got = _captured(main, argv)
    assert got[0] == expected[0], (argv, got, expected)
    if not expected[1].startswith("usage:"):  # help text is the reader's own
        assert got[1:] == expected[1:], argv
    parsed = _captured(_REFERENCE.parse_args, argv)[0]
    if isinstance(parsed, argparse.Namespace):
        args, extras = _captured(cli._read, argv)[0]
        assert (vars(args), extras) == (vars(parsed), []), argv
    return got


# (argv, exit code): first the argv that argparse decides otherwise than a
# reader with no refusal of option-like values, no --, no help and no
# ambiguous prefixes; then a repeat, a -- after the series, =, a negative
# number, a unique prefix and a lone -.
_ROWS = [
    (("cusps", "--q", "9", "--modulus", "-2,0,1", "--group", "full"), 2),
    (("split", "--q", "5", "--k", "4", "--", "-u^2"), 0),
    (("cusps", "-h"), 0),
    (("cusps", "--help"), 0),
    (("valence", "--q", "5", "--k", "4", "--v", "1"), 2),
    (("cusps", "--q", "5", "--group", "-x"), 2),
    (("cusps", "--q", "3", "--q", "5", "--group", "full"), 0),
    (("split", "--q", "5", "--k", "4", "u^2", "--"), 0),
    (("valence", "--q", "5", "--k=4", "--v-e", "-0"), 0),
    (("cusps", "--q", "5", "--gr", "gamma0:T"), 0),
    (("split", "--q", "5", "--k", "4", "-"), 2),
]


@pytest.mark.parametrize("argv, code", _ROWS, ids=[" ".join(a) for a, _ in _ROWS])
def test_the_reader_decides_each_row_as_argparse_does(monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "1000")  # argparse's usage on one line
    assert _same_as_argparse(argv)[0] == code


_OPTION_LIKE = ["-2,0,1", "-x", "-4", "-1.5", "-", "--", "-h", "-hh", "-hx", "-h=h", "- 2", "--q"]


@st.composite
def _wide_argv(draw):
    """An argv of `_argv`, then a few of: --name=value, a prefix of a name,
    an option-like or negative value, a --, a repeat, an extra argument, help,
    and no command or an unknown one."""
    argv = draw(_argv())
    edits = st.sampled_from((0, 0, 1, 1, 1, 2, 2, 3, 4, 5, 6, 7, 8, 9, 9))
    for edit in draw(st.lists(edits, max_size=3)):
        at = draw(st.integers(0, len(argv)))
        flags = [i for i, tok in enumerate(argv) if tok.startswith("--") and i + 1 < len(argv)]
        if edit == 0 and flags:
            i = draw(st.sampled_from(flags))
            argv[i:i + 2] = [argv[i] + "=" + argv[i + 1]]
        elif edit == 1 and flags:
            i = draw(st.sampled_from(flags))
            argv[i] = argv[i][:draw(st.integers(2, len(argv[i])))]
        elif edit == 2:
            flag = draw(st.sampled_from(["--q", "--modulus", "--group", "--k", "--v-other"]))
            argv[at:at] = [flag, draw(st.sampled_from(_OPTION_LIKE))]
        elif edit == 3:
            argv[at:at] = ["--"]
        elif edit == 4 and flags:
            value = draw(st.sampled_from(["3", "5", "0", "2", "json", "full", "gamma0:T", "u^2"]))
            argv += [argv[draw(st.sampled_from(flags))], value]
        elif edit == 5:
            argv.insert(at, draw(st.sampled_from(["u^2", "5", "-", "extra"])))
        elif edit == 6:
            helps = ["-h", "--help", "--he", "-hh", "--help=", "-hx"]
            argv.insert(at, draw(st.sampled_from(helps)))
        elif edit == 7:
            argv = argv[1:]
        elif edit == 8:
            argv[0] = draw(st.sampled_from(["frobnicate", "cusp", "", "-1"]))
        elif edit == 9:
            argv.insert(at, draw(st.sampled_from(_OPTION_LIKE + ["--v", "--=1", "--k-"])))
    return argv


def test_the_reader_reads_random_argv_as_argparse_does(monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")

    @settings(derandomize=True, max_examples=1500, deadline=None)
    @given(_wide_argv())
    def check(argv):
        assume(not any(tok[:1] == "-" and tok.endswith("=--") for tok in argv))  # see below
        _same_as_argparse(argv)

    check()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("cusps", "--q=--", "--group", "full"), "argument --q: invalid int value"),
        (("cusps", "--q", "5", "--group", "full", "--format=--"), "invalid choice: '--'"),
    ],
)
def test_a_value_of_two_dashes_is_a_value(capsys, argv, message):
    # argparse drops the "--" of --name=-- and stores []: a TypeError out of
    # main for --q, the table format for --format
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_the_table_keeps_working_when_cli_names_are_rebound(capsys, monkeypatch):
    # perfbench's tracer rebinds the library names in cli to wrappers, while
    # the option table holds the functions themselves
    monkeypatch.setattr(cli, "parse_int", lambda *args: parse_int(*args))
    code, out, _ = run(capsys, "cusps", "--q", "5", "--group", "full")
    assert (code, out.splitlines()[0]) == (0, "count: 1")
    _, _, err = run(capsys, "cusps", "--q", "x", "--group", "full")
    assert "argument --q: invalid int value" in err


# ------------------------------------------------------------------ help


def test_drinfeld_help_lists_the_commands(capsys):
    for flag in ("-h", "--help"):
        code, out, err = run(capsys, flag)
        assert (code, err) == (0, "")
        for command, (_, text, _) in cli.COMMANDS.items():
            assert "  %-24s %s\n" % (command, text) in out


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_each_command_help_lists_its_options(capsys, command):
    code, out, err = run(capsys, command, "-h")
    assert (code, err) == (0, "")
    assert out.startswith("usage: drinfeld %s [-h] " % command)
    for name, (convert, default, text) in cli.COMMANDS[command][2].items():
        line = next(line for line in out.splitlines() if line.startswith("  " + name))
        assert text in line
        if convert.__class__ is tuple:
            assert "{%s}" % ",".join(convert) in line
        if default is cli._REQUIRED:
            assert line.endswith("(required)")
        elif default is not None:
            assert line.endswith("(default: %s)" % default)
    assert "odd prime power, at most 65536 (required)" in out


# ------------------------------------------------------------- JSON writer

_JSON_SCALARS = (
    st.text()
    | st.sampled_from(['"', "\\", '\\"', "\n\t\x00\x1f\x7f", "é", " ", "😀", ""])
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.booleans()
    | st.none()
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


def test_the_json_writer_writes_what_json_dumps_writes():
    # the writer takes payloads, so each drawn value is written inside one
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_JSON_VALUES)
    def check(x):
        payload = {"schema": "drinfeld/1", "value": x}
        assert cli._json(payload) == json.dumps(payload, indent=2)

    check()


def test_the_json_writer_keeps_bools_apart_from_ints():
    x = {"t": True, "one": 1, "f": False, "zero": 0, "items": [True, 1, False, 0, None]}
    assert cli._json(x) == json.dumps(x, indent=2)
    assert json.loads(cli._json(x)) == x
    kinds = [type(v) for v in json.loads(cli._json(x["items"]))]
    assert kinds == [bool, int, bool, int, type(None)]


@pytest.mark.parametrize("x", ["x", 1, 1.5, (1, 2)], ids=["str", "int", "float", "tuple"])
def test_the_json_writer_refuses_a_top_level_scalar_and_prints_nothing(capsys, x):
    with pytest.raises(TypeError):
        cli._json(x)
    args = argparse.Namespace(format="json", command="ellsearch", q=3)
    with pytest.raises(TypeError):
        cli._emit(args, x, None)
    assert capsys.readouterr().out == ""


class _Float(float):
    pass


class _Str(str):
    pass


class _Int(int):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


@pytest.mark.parametrize(
    "bad",
    [
        1.5, _Float(2.0), (1, 2), {1, 2}, b"x", {1: "a"},
        _Str("sub"), _Int(5), _Dict(k=1), _Dict(), _List([1]), _List(),
    ],
    ids=[
        "float", "float-subclass", "tuple", "set", "bytes", "int-key",
        "str-subclass", "int-subclass", "dict-subclass", "empty-dict-subclass",
        "list-subclass", "empty-list-subclass",
    ],
)
def test_the_json_writer_refuses_a_value_nested_three_deep_and_writes_nothing(
    capsys, bad
):
    payload = {"witnesses": [{"det": "1", "matrix": [["T", bad]]}]}
    with pytest.raises(TypeError):
        cli._json(payload)
    args = argparse.Namespace(format="json", command="ellsearch", q=3)
    with pytest.raises(TypeError):
        cli._emit(args, payload, None)
    assert capsys.readouterr().out == ""


def test_the_json_writer_puts_empty_containers_in_place():
    xs = [
        {}, [],
        {"a": {}, "b": [], "c": [[], {}, [{}]], "d": {"e": [[]]}},
        [[[]], {}, [{}, []], ""],
        {"schema": "drinfeld/1", "v_other": [], "witnesses": [], "relations": [{}]},
    ]
    for x in xs:
        assert cli._json(x) == json.dumps(x, indent=2), x


# ----------------------------------------------------- text per request


def test_witness_text_is_formatted_per_request_not_per_process(capsys):
    # the same codes print as different text under the two moduli of F_9,
    # so text kept from an earlier request would show in a later one
    def request(modulus):
        return ["ellsearch", "--q", "9", "--modulus", modulus, "--group", "full",
                "--format", "json"]

    moduli = ["1,0,1", "2,1,1", "1,0,1"]
    in_process = []
    for modulus in moduli:
        assert main(request(modulus)) == 0
        in_process.append(capsys.readouterr().out)
    alone = {}
    for modulus in sorted(set(moduli)):
        proc = subprocess.run(
            [sys.executable, "-m", "drinfeld.cli", *request(modulus)],
            env=src_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=True,
        )
        alone[modulus] = proc.stdout
    assert alone["1,0,1"] != alone["2,1,1"]
    assert in_process == [alone[m] for m in moduli]
