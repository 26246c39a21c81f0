"""Command line surface: golden transcripts, JSON schema, parser, exit codes.

Each file under golden/ is a transcript: a `$ mwb ...` line followed by the
exact stdout of that command, blocks separated by one blank line.  Re-running
every command must reproduce the file byte for byte.  Set MWB_REGEN=1 to
rewrite the transcripts after an intentional output change.
"""

import contextlib
import io
import itertools
import json
import os
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, strategies as st

from conftest import ambient, random_polynomial
from mwb import cli
from mwb.errors import MwbError
from mwb.poly import Polynomial, format_polynomial

GOLDEN = Path(__file__).parent / "golden"
SCHEMA = json.loads((GOLDEN / "report.schema.json").read_text())

F_TEXT = "x^2 + y^2 z + z^3"
PAIR = "x^2 + y^2, z - y^2"
CENTER_Q = "x^2, y^2 z, z^3"

# transcript name -> the commands it records, one block per command
TRANSCRIPTS = {
    "newton.txt": [
        'mwb newton --ideal-monomial "x^2,y^3,z^3"',
        f'mwb newton --ideal "{F_TEXT}"',
    ],
    "blowup_single_ray.txt": [
        'mwb blowup --ordinary x,y,z --ideal-monomial "x^2,y^3,z^3" --rees 1',
    ],
    "blowup_two_rays.txt": [
        f'mwb blowup --ordinary x,y,z --ideal-monomial "{CENTER_Q}"',
    ],
    "transform_total.txt": [
        f'mwb transform --ordinary x,y,z --ideal "x^2 + y^2 + z^2"'
        f' --ideal-monomial "{CENTER_Q}" --kind total',
    ],
    "transform_weak.txt": [
        f'mwb transform --ordinary x,y,z --ideal "{CENTER_Q}"'
        f' --ideal-monomial "{CENTER_Q}" --kind weak',
    ],
    "transform_pair.txt": [
        f'mwb transform --ordinary x,y,z --ideal "{PAIR}"'
        f' --ideal-monomial "{CENTER_Q}" --kind weak',
        f'mwb transform --ordinary x,y,z --ideal "{PAIR}"'
        f' --ideal-monomial "{CENTER_Q}" --kind proper',
    ],
    "invariant_table.txt": [
        f'mwb invariant --monomial x,y,z --ideal "{F_TEXT}"',
        f'mwb invariant --ordinary x --monomial y,z --ideal "{F_TEXT}"',
        f'mwb invariant --ordinary x,y --monomial z --ideal "{F_TEXT}"',
        f'mwb invariant --ordinary x,y,z --ideal "{F_TEXT}"',
    ],
    "center_reduced.txt": [
        f'mwb center --ordinary x,y,z --ideal "{F_TEXT}"',
        f'mwb center --ordinary x,y,z --ideal "{PAIR}"',
    ],
    "resolve_monomial.txt": [
        f'mwb resolve --monomial x,y,z --ideal "{F_TEXT}" --trace',
    ],
    "resolve_ordinary.txt": [
        f'mwb resolve --ordinary x,y,z --ideal "{F_TEXT}" --trace',
    ],
    "resolve_mixed.txt": [
        f'mwb resolve --ordinary x,y --monomial z --ideal "{F_TEXT}" --trace',
    ],
    "resolve_marked.txt": [
        'mwb resolve --ordinary x,y --ideal "x^2 + (y - 1)^3" --mark 0,1 --trace',
    ],
    "principalize_pair.txt": [
        'mwb principalize --ordinary x,y --ideal "x^2, x y^2" --trace',
    ],
    "nondegenerate.txt": [
        f'mwb nondegenerate --monomial x,y,z --ideal "{F_TEXT}"',
        'mwb nondegenerate --ordinary x,y --ideal "(x+y)^2"',
    ],
    "one_step_check.txt": [
        f'mwb one-step-check --monomial x,y,z --ideal "{F_TEXT}"',
    ],
    "reembed_check.txt": [
        'mwb reembed-check --ordinary x,y --ideal "x^2 + y^3"',
        f'mwb reembed-check --ordinary x --monomial y,z --ideal "{F_TEXT}"',
    ],
    "reports_json.txt": [
        f'mwb blowup --ordinary x,y,z --ideal-monomial "{CENTER_Q}" --json',
        f'mwb invariant --ordinary x,y,z --ideal "{F_TEXT}" --json',
        f'mwb transform --ordinary x,y,z --ideal "{PAIR}"'
        f' --ideal-monomial "{CENTER_Q}" --kind weak --json',
    ],
}

# --json output of every transcript command, and of branches that no
# transcript reaches.  They live under golden/json/, outside the *.txt glob
# that the transcripts (and the benchmark's golden workload) read.
JSON_PINS = {
    f"json/{name}": [c + " --json" for c in commands]
    for name, commands in TRANSCRIPTS.items()
    if name != "reports_json.txt"
}
JSON_PINS["json/branches.txt"] = [
    # total transform of a non-principal ideal: no factored line
    f'mwb transform --ordinary x,y,z --ideal "{PAIR}"'
    f' --ideal-monomial "{CENTER_Q}" --kind total --json',
    # no center at the point
    'mwb reembed-check --ordinary x,y --ideal "x^2 + y^3" --point 1,1 --json',
    # degenerate: a witness face instead of a blow-up
    'mwb one-step-check --monomial x,y --ideal "(x+y)^2" --json',
]


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:  # argparse usage failure
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def child_env(**extra):
    """The environment for an mwb child process that imports the same mwb
    as this process, installed or not."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **extra)


def run_line(command):
    words = shlex.split(command)
    assert words[0] == "mwb"
    return run_cli(words[1:])


def render(commands):
    chunks = []
    for command in commands:
        code, out, err = run_line(command)
        assert code == 0, f"{command!r} failed: {err}"
        assert err == ""
        assert "\n\n" not in out and not out.startswith("\n")
        assert not any(line.startswith("$ ") for line in out.splitlines())
        chunks.append(f"$ {command}\n{out}")
    return "\n".join(chunks)


class TestTranscripts:
    @pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
    def test_transcript(self, name):
        text = render(TRANSCRIPTS[name])
        path = GOLDEN / name
        if os.environ.get("MWB_REGEN"):
            path.write_text(text)
        assert path.read_text() == text

    @pytest.mark.parametrize("name", sorted(JSON_PINS))
    def test_json_pin(self, name):
        text = render(JSON_PINS[name])
        path = GOLDEN / name
        if os.environ.get("MWB_REGEN"):
            path.write_text(text)
        assert path.read_text() == text

    def test_every_golden_file_is_claimed(self):
        on_disk = {p.name for p in GOLDEN.glob("*.txt")}
        assert on_disk == set(TRANSCRIPTS)
        pinned = {f"json/{p.name}" for p in (GOLDEN / "json").glob("*.txt")}
        assert pinned == set(JSON_PINS)

    def test_commands_in_files_match_the_table(self):
        # transcripts stay self-describing: the $ lines are the commands
        for name, commands in {**TRANSCRIPTS, **JSON_PINS}.items():
            lines = (GOLDEN / name).read_text().splitlines()
            recorded = [l[2:] for l in lines if l.startswith("$ ")]
            assert recorded == commands

    def test_reports_are_stable_across_hash_seeds(self):
        command = TRANSCRIPTS["reports_json.txt"][0]
        argv = shlex.split(command)[1:]
        outs = []
        for seed in ("0", "1"):
            r = subprocess.run(
                [sys.executable, "-m", "mwb.cli", *argv],
                capture_output=True,
                text=True,
                env=child_env(PYTHONHASHSEED=seed),
            )
            assert r.returncode == 0
            outs.append(r.stdout)
        assert outs[0] == outs[1]


class TestJsonSchema:
    CASES = [
        ("newton", ["newton", "--ideal-monomial", "x^2,y^3,z^3"]),
        ("newton", ["newton", "--ideal", F_TEXT]),
        ("blowup", ["blowup", "--ordinary", "x,y,z", "--ideal-monomial", CENTER_Q]),
        (
            "blowup",
            ["blowup", "--ordinary", "x,y,z", "--ideal-monomial", "x^2,y^3,z^3", "--rees", "1"],
        ),
        (
            "transform",
            ["transform", "--ordinary", "x,y,z", "--ideal", PAIR,
             "--ideal-monomial", CENTER_Q, "--kind", "weak"],
        ),
        (
            "transform",
            ["transform", "--ordinary", "x,y,z", "--ideal", "x^2 + y^2 + z^2",
             "--ideal-monomial", CENTER_Q],
        ),
        ("invariant", ["invariant", "--ordinary", "x,y,z", "--ideal", F_TEXT]),
        ("invariant", ["invariant", "--monomial", "x,y,z", "--ideal", F_TEXT]),
        ("center", ["center", "--ordinary", "x,y,z", "--ideal", F_TEXT]),
        ("center", ["center", "--ordinary", "x,y,z", "--ideal", PAIR]),
        ("resolve", ["resolve", "--ordinary", "x,y", "--monomial", "z", "--ideal", F_TEXT]),
        ("principalize", ["principalize", "--ordinary", "x,y", "--ideal", "x^2, x y^2"]),
        ("nondegenerate", ["nondegenerate", "--ordinary", "x,y", "--ideal", "(x+y)^2"]),
        ("one-step-check", ["one-step-check", "--monomial", "x,y,z", "--ideal", F_TEXT]),
        ("one-step-check", ["one-step-check", "--monomial", "x,y", "--ideal", "(x+y)^2"]),
        ("reembed-check", ["reembed-check", "--ordinary", "x,y", "--ideal", "x^2 + y^3"]),
    ]

    @pytest.mark.parametrize("defname,argv", CASES, ids=lambda v: v if isinstance(v, str) else " ".join(v))
    def test_json_output_validates(self, defname, argv):
        code, out, err = run_cli(argv + ["--json"])
        assert code == 0, err
        obj = json.loads(out)
        schema = {"$defs": SCHEMA["$defs"], "$ref": f"#/$defs/{defname}"}
        jsonschema.Draft202012Validator(schema).validate(obj)

    def test_schema_covers_every_subcommand(self):
        covered = {d for d, _ in self.CASES}
        assert covered == {
            "newton", "blowup", "transform", "invariant", "center",
            "resolve", "principalize", "nondegenerate", "one-step-check",
            "reembed-check",
        }

    def test_json_golden_blocks_validate(self):
        pinned = [c for commands in JSON_PINS.values() for c in commands]
        for command in TRANSCRIPTS["reports_json.txt"] + pinned:
            argv = shlex.split(command)[1:]
            code, out, _ = run_cli(argv)
            assert code == 0
            schema = {"$defs": SCHEMA["$defs"], "$ref": f"#/$defs/{argv[0]}"}
            jsonschema.Draft202012Validator(schema).validate(json.loads(out))


class TestParser:
    def test_print_parse_round_trip(self):
        # p/q coefficients, and primed names as blow-up charts print them
        rng = random.Random(5150)
        plain = ambient(ordinary="x,y", monomial="z")
        for amb in (plain, ambient(ordinary="x',u1", monomial="z'")):
            for _ in range(40):
                p = random_polynomial(rng, amb, max_terms=4)
                scale = {e: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for e in p.terms}
                p = Polynomial(amb, {e: c * scale[e] for e, c in p.terms.items()})
                assert cli.parse_polynomial(format_polynomial(p), amb) == p

    def test_parse_print_is_stable(self):
        amb = ambient(ordinary="x,y")
        text = format_polynomial(cli.parse_polynomial("y x + x^2 2 + x y", amb))
        assert format_polynomial(cli.parse_polynomial(text, amb)) == text

    def test_juxtaposition_and_explicit_star_agree(self):
        amb = ambient(ordinary="x,y")
        assert cli.parse_polynomial("2 x y^2", amb) == cli.parse_polynomial(
            "2*x*y^2", amb
        )

    def test_fractional_coefficients(self):
        amb = ambient(ordinary="x")
        p = cli.parse_polynomial("1/2 x + 3/4", amb)
        assert format_polynomial(p) == "1/2*x + 3/4"

    def test_parenthesized_power(self):
        amb = ambient(ordinary="x,y")
        p = cli.parse_polynomial("(x + y)^2", amb)
        assert format_polynomial(p) == "x^2 + 2*x*y + y^2"

    def test_unary_minus(self):
        amb = ambient(ordinary="x,y")
        p = cli.parse_polynomial("-x + y - (-2)", amb)
        assert format_polynomial(p) == "-x + y + 2"

    def test_primed_names(self):
        amb = ambient(ordinary="x',u1")
        p = cli.parse_polynomial("x'^2 u1", amb)
        assert format_polynomial(p) == "x'^2*u1"

    def test_unknown_variable(self):
        amb = ambient(ordinary="x")
        with pytest.raises(MwbError, match="no variable 'w'"):
            cli.parse_polynomial("x + w", amb)

    def test_trailing_garbage(self):
        amb = ambient(ordinary="x")
        with pytest.raises(MwbError, match="trailing input"):
            cli.parse_polynomial("x ) x", amb)

    def test_unreadable_character(self):
        with pytest.raises(MwbError, match="cannot read"):
            cli.tokenize("x ? y")

    def test_monomial_ideal_rejects_sums_and_coefficients(self):
        amb = ambient(ordinary="x,y")
        with pytest.raises(MwbError, match="not a monomial"):
            cli.parse_monomial_ideal("x + y", amb)
        with pytest.raises(MwbError, match="has a coefficient"):
            cli.parse_monomial_ideal("2 x", amb)


class TestExitCodes:
    def test_success_is_zero(self):
        code, out, err = run_cli(["invariant", "--ordinary", "x,y", "--ideal", "x^2 + y^3"])
        assert (code, err) == (0, "")
        assert "invariant: (2, 3)" in out

    def test_point_is_a_fraction_or_a_decimal(self):
        base = ["invariant", "--ordinary", "x,y", "--ideal", "x^2 + y^3", "--point"]
        code, out, err = run_cli(base + ["1/2,0"])
        assert (code, err) == (0, "") and "point: (1/2, 0)" in out.splitlines()
        assert run_cli(base + ["0.5,0"]) == (code, out, err)

    def test_exceptional_names_avoid_every_source_initial(self):
        # u, v, w, s, t and E are all taken, so the exceptional variable
        # takes the next letter that no source variable starts with
        ordinary = ["--ordinary", "u,v,w,s,t,E"]
        code, out, err = run_cli(["blowup", *ordinary, "--ideal-monomial", "u^2, v^3"])
        assert (code, err) == (0, "")
        assert "pullback: u = u'*a^3" in out.splitlines()
        code, out, err = run_cli(["resolve", *ordinary, "--ideal", "u^2 + v^3"])
        assert (code, err) == (0, "")

    def test_primed_cox_names_avoid_source_names(self):
        # a primed Cox name that a source variable already holds gains one
        # more prime; a source name that collides with nothing stays
        argv = ["blowup", "--ordinary", "x,x',y", "--ideal-monomial", "x, y"]
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert {"pullback: x = x''*u", "pullback: x' = x'", "pullback: y = y'*u"} <= set(lines)
        argv = ["resolve", "--ordinary", "x,y'", "--monomial", "y", "--ideal", "x^2 + y^3"]
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        leaves = [line for line in out.splitlines() if ": leaf " in line]
        assert leaves == ["root/x': leaf smooth [chart]", "root/y'': leaf smooth [chart]"]

    def test_closed_output_is_no_traceback(self):
        # the read end is closed before the child starts, so its first
        # write to stdout fails with a broken pipe
        argv = ["resolve", "--ordinary", "x,y,z", "--ideal", "x^2 + y^2 z^2", "--json"]
        read, write = os.pipe()
        os.close(read)
        try:
            r = subprocess.run(
                [sys.executable, "-m", "mwb.cli", *argv, "--trace"],
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
                env=child_env(),
            )
        finally:
            os.close(write)
        assert (r.returncode, r.stderr) == (cli.CLOSED_OUTPUT, "")
        assert cli.CLOSED_OUTPUT == 141

    def test_reembed_off_the_locus_is_ok(self):
        for ideal, point in (("x^2 + y^3", "1,0"), ("1", "0,0")):
            argv = ["reembed-check", "--ordinary", "x,y", "--ideal", ideal, "--point", point]
            code, out, err = run_cli(argv)
            assert (code, err) == (0, "")
            assert "invariant: (0) -> (0): ok" in out.splitlines()
            code, out, _ = run_cli(argv + ["--json"])
            assert code == 0 and json.loads(out)["invariant_ok"] is True

    def test_domain_error_is_one(self):
        code, out, err = run_cli(["invariant", "--ordinary", "x", "--ideal", "x + w"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_usage_error_is_two(self):
        code, _, _ = run_cli(["transform", "--ordinary", "x", "--ideal", "x"])
        assert code == 2
        code, _, _ = run_cli(["frobnicate"])
        assert code == 2
        code, _, _ = run_cli(
            ["newton", "--ideal", "x", "--ideal-monomial", "x"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["newton", "--ideal", "3 + 4"],
            ["invariant", "--ordinary", "x,y", "--ideal", "x^2", "--point", "0"],
            ["blowup", "--ordinary", "x,y", "--ideal-monomial", "x + y"],
            ["resolve", "--ordinary", "x,y", "--ideal", "x^2 + y^3", "--mark", "1"],
            ["nondegenerate", "--ordinary", "x,y", "--ideal", "x, y"],
            ["invariant", "--ordinary", "x,y", "--ideal", "1/0 x^2 + y^3"],
            ["blowup", "--ordinary", "x,y", "--ideal-monomial", "x^2, y^3", "--rees", "0"],
            ["blowup", "--ordinary", "x,y", "--ideal-monomial", "x^2, y^3",
             "--weights", "3,2=0"],
            ["blowup", "--ordinary", "x,y", "--ideal-monomial", "x^2, y^3",
             "--weights", "9,9=1"],
        ],
        ids=(
            "no-vars point-arity non-monomial mark-arity two-gens zero-denominator"
            " rees-zero weight-zero weight-direction-not-a-ray"
        ).split(),
    )
    def test_malformed_input_is_one(self, argv):
        # values that parse but do not fit the ambient or the fan: the
        # library refuses them
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["blowup", "--ordinary", "x,y", "--ideal-monomial", "x", "--weights", "1,1"],
             "--weights"),
            (["blowup", "--ordinary", "x,y", "--ideal-monomial", "x",
              "--rees", "2", "--weights", "1,1=1"], "--weights"),
            (["resolve", "--ordinary", "x,y", "--ideal", "x^2 + y^3", "--mark", "1/0,0"],
             "--mark"),
            (["invariant", "--ordinary", "x,y", "--ideal", "x^2", "--point", "0,1/0"],
             "--point"),
            (["resolve", "--ordinary", "x,y", "--ideal", "x^2 + y^3", "--mark", "a,0"],
             "--mark"),
            (["invariant", "--ordinary", "x,y", "--ideal", "x^2", "--point", "abc,0"],
             "--point"),
            (["blowup", "--ordinary", "x,y", "--ideal-monomial", "x", "--weights", "a=1"],
             "--weights"),
            (["blowup", "--ordinary", "x,y", "--ideal-monomial", "x", "--weights", "1,0=w"],
             "--weights"),
            (["invariant", "--ordinary", "x,y", "--ideal", "x^2", "--point", ""], "--point"),
            (["center", "--ordinary", "x,y", "--ideal", "x^2", "--point", ""], "--point"),
            (["reembed-check", "--ordinary", "x,y", "--ideal", "x^2 + y^3", "--point", ""],
             "--point"),
            (["blowup", "--ordinary", "x,y", "--ideal-monomial", "x", "--weights", ""],
             "--weights"),
            (["blowup", "--ordinary", "x,y", "--ideal-monomial", "x", "--weights", ";"],
             "--weights"),
            (["blowup", "--ordinary", "x,y", "--ideal-monomial", "x^2, y^3",
              "--weights", "3,2=1;3,2=2"], "--weights"),
            (["invariant", "--ordinary", "x,y", "--ideal", "x^2 + y^3",
              "--point", "1e1000000,0"], "--point"),
            (["resolve", "--ordinary", "x,y", "--ideal", "x^2 + y^3", "--mark", "1E5,0"],
             "--mark"),
        ],
        ids=(
            "weight-syntax rees-and-weights mark-zero-denominator point-zero-denominator"
            " mark-not-numeric point-not-numeric weight-direction-not-numeric"
            " weight-not-numeric invariant-empty-point center-empty-point"
            " reembed-empty-point empty-weights weights-no-direction"
            " weight-direction-repeated point-exponent mark-exponent"
        ).split(),
    )
    def test_malformed_value_is_two(self, argv, option):
        # an option value that does not parse is a usage error, reported by
        # argparse against the option before any command runs
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert f"argument {option}" in err


class TestBounded:
    """Huge exponents and long contact chains: each ends quickly and cleanly."""

    def test_huge_power_exceeds_the_closure_budget(self):
        start = time.perf_counter()
        argv = ["invariant", "--ordinary", "x,y", "--ideal", "x^99999999999999999999"]
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "exceeds" in err
        assert time.perf_counter() - start < 1
        code, out, _ = run_cli(["invariant", "--ordinary", "x,y", "--ideal", "x^200"])
        assert code == 0 and "invariant: (200)" in out.splitlines()

    def test_huge_power_off_the_origin(self):
        # the order at (1, 0) comes from partial derivatives, not from an
        # expansion of (x + 1)^N
        start = time.perf_counter()
        base = ["invariant", "--ordinary", "x,y", "--point", "1,0", "--ideal"]
        code, out, _ = run_cli(base + ["x^99999999999999999999"])
        assert code == 0 and "invariant: (0)" in out.splitlines()
        code, out, err = run_cli(base + ["x^99999999999999999999 - 1"])
        assert (code, out) == (1, "") and "not in rectifiable shape" in err
        assert time.perf_counter() - start < 1

    def test_huge_power_evaluated_at_a_point(self):
        start = time.perf_counter()
        argv = ["invariant", "--ordinary", "x,y", "--point", "2,0",
                "--ideal", "x^99999999999999999999"]
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "exceeds" in err
        assert time.perf_counter() - start < 1

    def test_huge_parenthesized_power_exceeds_the_term_budget(self):
        start = time.perf_counter()
        argv = ["transform", "--ordinary", "x,y", "--ideal", "(x+y)^99999",
                "--ideal-monomial", "x, y"]
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "term products" in err
        assert time.perf_counter() - start < 2
        argv[4] = "(x+y)^5"
        code, out, err = run_cli(argv)
        assert code == 0 and err == ""
        assert out.splitlines()[1] == (
            "total: u^5 * (x'^5 + 5*x'^4*y' + 10*x'^3*y'^2 + 10*x'^2*y'^3"
            " + 5*x'*y'^4 + y'^5)"
        )

    @pytest.mark.parametrize(
        "ideal, message",
        [
            ("{long} x", "5000 digits"),
            ("x^{long}", "5000 digits"),
            ("x + 1/{long}", "5000 digits"),
            ("(2)^15000 x", "8195-bit coefficients"),
            ("(3/7)^9000 x + y", "over the budget of 8192"),
            # coprime denominators of 2401 digits: their sum needs about 16,000 bits
            ("x + 1/1{zeros}0 + 1/1{zeros}1", "coefficients need"),
        ],
        ids="coefficient exponent denominator power fraction-power sum".split(),
    )
    def test_long_literals_and_huge_coefficients_are_refused(self, ideal, message):
        # int() refuses a 5000-digit literal, and str() a coefficient that
        # long: the parser and the coefficient budget refuse them first
        start = time.perf_counter()
        ideal = ideal.format(long="7" * 5000, zeros="0" * 2399)
        code, out, err = run_cli(["invariant", "--ordinary", "x,y", "--ideal", ideal])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err
        assert time.perf_counter() - start < 2

    @pytest.mark.parametrize(
        "command, prints",
        [("center", True), ("invariant", True), ("resolve", False), ("principalize", False)],
    )
    def test_derived_coefficients_past_the_print_limit(self, command, prints):
        # both coefficients fit the budget, but the reduced basis the contact
        # comes from divides them into coefficients of about 15,850 bits:
        # the contact refusal names such an element by its bits, the center
        # prints, and a tree whose report would print one is refused
        start = time.perf_counter()
        argv = [command, "--ordinary", "x,y", "--ideal", "(2)^8000 x^2 + y^3 + (3)^5000 x y"]
        code, out, err = run_cli(argv)
        if prints:
            assert (code, err) == (0, "") and "center: (x, y)" in out.splitlines()
        else:
            assert (code, out) == (1, "")
            assert err == "error: a 15850-bit coefficient is too long to print\n"
        assert time.perf_counter() - start < 5

    def test_the_largest_literal_and_coefficients_print(self):
        long = "7" * cli.LITERAL_DIGITS
        for ideal in (f"{long} x + y", f"x^2 + 1/{long} y", "(2)^8000 x + y"):
            code, out, err = run_cli(["invariant", "--ordinary", "x,y", "--ideal", ideal])
            assert (code, err) == (0, "")
            assert "invariant: (1)" in out.splitlines()

    def test_deep_contact_chain(self):
        ideal = "x^4 - x^3 y^2 - 2 x y^3 - z, y^3 z^3"
        code, out, _ = run_cli(["invariant", "--ordinary", "x,y,z", "--ideal", ideal])
        assert code == 0
        assert "invariant: (1, 15, 15)" in out.splitlines()

    def test_resolve_on_a_monomial_divisor(self):
        argv = ["resolve", "--ordinary", "x,y", "--monomial", "z",
                "--ideal", "x y^3 z^2 - x y^2 z^3"]
        code, out, err = run_cli(argv)
        assert code in (0, 1)
        if code == 1:
            assert err.startswith("error: ") and out == ""


class TestFlags:
    def test_depth_limit_env(self, monkeypatch):
        monkeypatch.setenv("MWB_DEPTH_LIMIT", "0")
        code, _, err = run_cli(["resolve", "--ordinary", "x,y", "--ideal", "x^2 + y^3"])
        assert code == 1
        assert "no termination within 0 blow-ups" in err

    @pytest.mark.parametrize("value", ["abc", "-3"])
    def test_bad_depth_limit_env_is_an_error(self, monkeypatch, value):
        monkeypatch.setenv("MWB_DEPTH_LIMIT", value)
        code, out, err = run_cli(["resolve", "--ordinary", "x,y", "--ideal", "x^2 + y^3"])
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert f"MWB_DEPTH_LIMIT={value!r}" in err

    def test_mark_moves_the_worst_point(self):
        code, out, _ = run_cli(
            ["resolve", "--ordinary", "x,y", "--ideal", "x^2 + (y - 1)^3", "--mark", "0,1"]
        )
        assert code == 0
        assert "invariant (2, 3) at (0, 1)" in out
        # without the mark the origin is off the locus and nothing happens
        code, out, _ = run_cli(
            ["resolve", "--ordinary", "x,y", "--ideal", "x^2 + (y - 1)^3"]
        )
        assert code == 0
        assert "order: 0" in out

    def test_trace_extends_the_summary(self):
        base = ["resolve", "--ordinary", "x,y,z", "--ideal", F_TEXT]
        _, summary, _ = run_cli(base)
        _, trace, _ = run_cli(base + ["--trace"])
        assert set(summary.splitlines()) < set(trace.splitlines())
        assert "root: pullback x = x'*u^3" in trace
        assert "pullback" not in summary

    def test_newton_infers_variables_in_order_of_appearance(self):
        _, out, _ = run_cli(["newton", "--ideal", "y^2 + x^3"])
        assert "A^{2;0}(y ordinary, x ordinary)" in out

    def test_center_monomial_part_is_its_newton_vertices(self):
        # the family also has the point y^2, from its pair (y, 1/2); it lies
        # inside the Newton polyhedron of y^{4/3}, z^3 and is not printed
        code, out, _ = run_cli(
            ["center", "--ordinary", "x", "--monomial", "y,z", "--ideal", "x^4 + x y + z^3"]
        )
        assert code == 0
        assert "center: (x, (y^4, z^9)^{1/12})" in out.splitlines()
        assert "ideal: (x^12, y^4, z^9)" in out.splitlines()


# -- fuzzing ----------------------------------------------------------------

# options of each subcommand besides the ambient and --json; a trailing ?
# marks one that is given only now and then
FUZZ_OPTIONS = {
    "newton": ("--ideal", "--ideal-monomial?"),
    "blowup": ("--ideal-monomial", "--weights?", "--rees?"),
    "transform": ("--ideal", "--ideal-monomial", "--weights?", "--rees?", "--kind?"),
    "invariant": ("--ideal", "--point?"),
    "center": ("--ideal", "--point?"),
    "resolve": ("--ideal", "--mark?", "--mark?", "--trace?"),
    "principalize": ("--ideal", "--mark?", "--mark?", "--trace?"),
    "nondegenerate": ("--ideal",),
    "one-step-check": ("--ideal",),
    "reembed-check": ("--ideal", "--point?"),
}

# tokens joined by blanks, so no number grows past one token
SOUP = ("x", "y", "w", "0", "1", "2", "3", "1/2", "1/0", "+", "-", "*", "^",
        "(", ")", ",", ";", "=", "'", "total")
soup = st.lists(st.sampled_from(SOUP), max_size=8).map(" ".join)

# small values: degree at most two in the ambient's variables
small_rational = st.sampled_from(("0", "1", "-1", "1/2", "-2"))


def small_values(names):
    """The value strategy of each option over the variables in names."""
    exps = [e for e in itertools.product(range(3), repeat=len(names)) if sum(e) <= 2]

    def text(e):
        return " ".join(f"{v}^{k}" for v, k in zip(names, e))

    @st.composite
    def small_polynomial(draw):
        terms = draw(st.lists(st.sampled_from(exps), min_size=1, max_size=4, unique=True))
        return " + ".join(f"({draw(small_rational)}) {text(e)}" for e in terms)

    point = st.lists(small_rational, min_size=len(names), max_size=len(names))
    direction = st.lists(st.integers(0, 2), min_size=len(names), max_size=len(names))
    weight = st.tuples(direction, st.integers(-1, 2))
    return {
        "--ideal": st.lists(small_polynomial(), min_size=1, max_size=2).map(", ".join),
        "--ideal-monomial": st.lists(st.sampled_from(exps).map(text), min_size=1, max_size=3)
        .map(", ".join),
        "--point": point.map(",".join),
        "--mark": point.map(",".join),
        "--weights": st.lists(
            weight.map(lambda t: ",".join(map(str, t[0])) + f"={t[1]}"),
            min_size=1,
            max_size=2,
        ).map(";".join),
        "--rees": st.integers(-1, 3).map(str),
        "--kind": st.sampled_from(("total", "weak", "proper")),
    }


SMALL = {names: small_values(names) for names in ("xy", "xyz")}
# two variables mostly; inferred ones, a missing one and a third now and then
AMBIENTS = (
    ["--ordinary", "x,y"],
    ["--monomial", "x,y"],
    ["--ordinary", "x", "--monomial", "y"],
    ["--ordinary", "y", "--monomial", "x"],
    [],
    ["--ordinary", "x,y"],
    ["--monomial", "x,y"],
    ["--ordinary", "x", "--monomial", "y"],
    ["--monomial", "x"],
    ["--ordinary", "x,y", "--monomial", "z"],
)


@st.composite
def command(draw, name):
    ambient = draw(st.sampled_from(AMBIENTS))
    small = SMALL["xyz" if "z" in ambient else "xy"]
    argv = [name] + ambient
    for opt in FUZZ_OPTIONS[name]:
        # zeros are the draws a failing example shrinks to: they keep the
        # required options in and the occasional ones out
        if opt.endswith("?"):
            opt = opt[:-1]
            if draw(st.integers(0, 2)) < 2:
                continue
        elif draw(st.integers(0, 5)) == 5:
            continue
        if opt == "--trace":
            argv.append(opt)
        else:
            value = draw(soup if draw(st.integers(0, 2)) == 2 else small[opt])
            argv.append(f"{opt}={value}")
    if draw(st.booleans()):
        argv.append("--json")
    return argv


class TestFuzz:
    @pytest.mark.parametrize("name", sorted(FUZZ_OPTIONS))
    @given(data=st.data())
    def test_every_command_ends_cleanly(self, name, data):
        argv = data.draw(command(name))
        code, out, err = run_cli(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code == 1:
            assert err.startswith("error: ") and out == "", argv

    def test_every_subcommand_is_fuzzed(self):
        subs = cli.build_parser()._subparsers._group_actions[0].choices
        assert set(subs) == set(FUZZ_OPTIONS)
        for name, opts in FUZZ_OPTIONS.items():
            taken = {a.option_strings[0] for a in subs[name]._actions[1:]}
            assert taken - {"--json", "--ordinary", "--monomial"} == {
                opt.rstrip("?") for opt in opts
            }
