import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import src_env
from torofree.cli import MAX_WINDOW_DEGREES, _parse_window, main
from torofree.errors import StructureError
from torofree.polyalg import MAX_EXPONENT, MAX_SHIFT_MONOMIALS
from torofree.repmods import MAX_FORMULA_RANK

FULL_SPEC = {
    "algebra": {"family": "A", "rank": 1, "loop_vars": 1, "variant": "full",
                "cocycle": [1, 0]},
    "lambda": ["2"], "witt_a": "0", "base_a": ["2"], "base_b": "3", "S": [1],
}
NONSIMPLE_SPEC = {
    "algebra": {"family": "A", "rank": 1, "loop_vars": 1, "variant": "toroidal"},
    "lambda": ["2"], "base_a": ["1"], "base_b": "1", "S": [1, 2],
}
C_SPEC = {
    "algebra": {"family": "C", "rank": 2, "loop_vars": 1, "variant": "toroidal"},
    "lambda": ["2"], "base_a": ["1", "1"], "base_b": "0", "S": [1, 2],
}


@pytest.fixture
def specfile(tmp_path):
    def write(data, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestAct:
    def test_example(self, specfile, capsys):
        code, out = run(capsys, [
            "act", "--spec", specfile(FULL_SPEC), "--gen", "x1(2)", "--poly", "d1*H1",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == "8*H1*d1 - 16*H1 - 8*d1 + 16"

    def test_matches_library(self, specfile, capsys):
        from torofree.polyalg import Poly
        from torofree.repmods import Generator, act, spec_from_json

        spec = spec_from_json(FULL_SPEC)
        want = act(spec, Generator("D", 1, (-1,)), Poly.parse("d1", 1, 1))
        code, out = run(capsys, [
            "act", "--spec", specfile(FULL_SPEC), "--gen", "D1(-1)", "--poly", "d1",
        ])
        assert code == 0
        assert json.loads(out)["result"] == want.text()

    def test_bad_generator_is_usage_error(self, specfile, capsys):
        code, _ = run(capsys, [
            "act", "--spec", specfile(FULL_SPEC), "--gen", "q1(0)", "--poly", "1",
        ])
        assert code == 2


    @pytest.mark.parametrize("gen", ["x1(1,,2)", "x1(-)", "h1(a)", "h1(100000)"])
    def test_malformed_degree_is_usage_error(self, specfile, capsys, gen):
        # lambda^100000 has too many digits to print: a usage error too
        code = main(["act", "--spec", specfile(FULL_SPEC), "--gen", gen, "--poly", "1"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2 and len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("gen", ["h1({})", "h{}(1)"])
    def test_overlong_integer_is_usage_error(self, specfile, gen):
        # int() refuses more digits than sys.get_int_max_str_digits()
        proc = subprocess.run(
            [sys.executable, "-m", "torofree.cli", "act", "--spec", specfile(FULL_SPEC),
             "--gen", gen.format("9" * 5000), "--poly", "1"],
            capture_output=True, text=True, env=src_env(),
        )
        err = proc.stderr.splitlines()
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(err) == 1 and "digit limit" in err[0] and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("lam,code", [("3", 2), ("-1", 0)])
    def test_huge_lambda_power_is_refused_before_it_is_taken(self, specfile, lam, code):
        # 3^(10^3999) could never be computed; (-1)^(10^3999) is 1
        spec = dict(NONSIMPLE_SPEC, **{"lambda": [lam]})
        proc = subprocess.run(
            [sys.executable, "-m", "torofree.cli", "act", "--spec", specfile(spec),
             "--gen", "h1(1{})".format("0" * 3999), "--poly", "1"],
            capture_output=True, text=True, env=src_env(), timeout=60,
        )
        assert proc.returncode == code and "Traceback" not in proc.stderr
        if code:
            err = proc.stderr.splitlines()
            assert proc.stdout == "" and len(err) == 1 and "digit limit" in err[0]
        else:
            assert json.loads(proc.stdout)["result"] == "H1"

    def test_unprintable_coefficient_is_usage_error(self, specfile, capsys):
        # a 3001-digit lambda parses; its square does not print
        spec = dict(FULL_SPEC, **{"lambda": ["7" * 3001]})
        code = main(["act", "--spec", specfile(spec), "--gen", "h1(2)", "--poly", "1"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2 and len(err) == 1 and "digit limit" in err[0]


class TestSizeBounds:
    """Windows and exponents too large to expand are refused before expansion."""

    @pytest.mark.parametrize("window", ["-9:9", "-2:2"])
    def test_oversized_window_exits_2_quickly(self, specfile, capsys, window):
        # 19^8 and 5^8 loop degrees in 8 loop variables
        eight = dict(FULL_SPEC, algebra=dict(FULL_SPEC["algebra"], loop_vars=8),
                     **{"lambda": ["2"] * 8})
        start = time.perf_counter()
        code = main(["verify", "--spec", specfile(eight), f"--window={window}"])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 1
        assert code == 2 and captured.out == ""
        assert f"more than {MAX_WINDOW_DEGREES} loop degrees" in captured.err

    def test_window_at_the_cap_is_built(self):
        assert len(_parse_window("-4:5", 4)) == MAX_WINDOW_DEGREES
        with pytest.raises(StructureError, match=str(MAX_WINDOW_DEGREES)):
            _parse_window("-4:6", 4)

    @pytest.mark.parametrize("poly", ["H1^1001", "H1^9999999", "d1^600*d1^401",
                                      "H1^" + "9" * 5000])
    def test_huge_exponent_exits_2_quickly(self, specfile, capsys, poly):
        start = time.perf_counter()
        code = main(["act", "--spec", specfile(FULL_SPEC), "--gen", "x1", "--poly", poly])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 1
        assert code == 2 and captured.out == ""
        assert f"above {MAX_EXPONENT}" in captured.err

    def test_largest_exponent_runs(self, specfile, capsys):
        code, out = run(capsys, ["act", "--spec", specfile(FULL_SPEC), "--gen", "x1",
                                 "--poly", f"H1^{MAX_EXPONENT}"])
        assert code == 0 and json.loads(out)["input"] == f"H1^{MAX_EXPONENT}"

    @pytest.mark.parametrize("poly", ["H1^300*d1^300", "H1^100*d1^99", "H1^1000*d1^1000",
                                      "d1^10*H1^1000 + 2"])
    def test_term_with_too_many_shift_monomials_exits_2_quickly(self, specfile, capsys, poly):
        start = time.perf_counter()
        code = main(["act", "--spec", specfile(FULL_SPEC), "--gen", "x1(1)", "--poly", poly])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 1
        assert code == 2 and captured.out == ""
        assert f"more than {MAX_SHIFT_MONOMIALS} monomials" in captured.err

    def test_term_at_the_shift_monomial_cap_runs(self, specfile, capsys):
        # (99 + 1) * (99 + 1) = MAX_SHIFT_MONOMIALS monomials after the shift
        assert MAX_SHIFT_MONOMIALS == 100 * 100
        code, out = run(capsys, ["act", "--spec", specfile(FULL_SPEC), "--gen", "x1(1)",
                                 "--poly", "H1^99*d1^99"])
        result = json.loads(out)["result"]
        terms = result.count(" + ") + result.count(" - ") + 1
        assert code == 0 and terms == MAX_SHIFT_MONOMIALS

    def test_overlong_variable_index_exits_2(self, specfile, capsys):
        code = main(["act", "--spec", specfile(FULL_SPEC), "--gen", "x1",
                     "--poly", "H" + "1" * 5000])
        err = capsys.readouterr().err.splitlines()
        assert code == 2 and len(err) == 1 and "out of range" in err[0]


class TestSimplicity:
    def test_c_family_rule_text(self, specfile, capsys):
        code, out = run(capsys, ["simplicity", "--spec", specfile(C_SPEC)])
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "command": "simplicity",
            "simple": True,
            "rule": "C-family always simple",
            "spec": payload["spec"],
        }

    @pytest.mark.parametrize("b", ["0", "d1"])
    def test_finite_with_loop_variables_is_not_simple(self, specfile, capsys, b):
        spec = {"algebra": {"family": "A", "rank": 1, "loop_vars": 1, "variant": "finite"},
                "base_a": ["1"], "base_b": b, "S": [1]}
        code, out = run(capsys, ["simplicity", "--spec", specfile(spec)])
        assert code == 0
        payload = json.loads(out)
        assert payload["simple"] is False
        assert payload["rule"] == (
            "finite variant with loop variables: (d1) is a proper invariant ideal")

    def test_family_gate_exit_2(self, specfile, capsys):
        bad = {"algebra": {"family": "B", "rank": 3, "loop_vars": 1,
                           "variant": "toroidal"},
               "lambda": ["2"], "base_a": ["1", "1", "1"], "base_b": "0", "S": []}
        code, _ = run(capsys, ["simplicity", "--spec", specfile(bad)])
        assert code == 2

    def test_malformed_spec_exit_2(self, specfile, capsys):
        bad = dict(NONSIMPLE_SPEC, lambda_=None)
        bad = {k: v for k, v in bad.items() if k != "lambda_"}
        bad["lambda"] = ["0"]  # violates the nonzero invariant
        code, _ = run(capsys, ["simplicity", "--spec", specfile(bad)])
        assert code == 2

    @pytest.mark.parametrize("field,value", [
        ("rank", "x"), ("rank", None), ("rank", 1.5), ("loop_vars", [1]),
        ("family", ["A"]), ("cocycle", ["1/0", 0]),
        ("lambda", ["1/0"]), ("lambda", "2"), ("lambda", [2.5]),
        ("S", ["a"]), ("S", [True]), ("base_a", [None]), ("base_b", "1/0"),
        ("witt_a", "x"), ("rank", 10**30), ("loop_vars", 10**30),
    ])
    def test_malformed_field_exit_2(self, specfile, capsys, field, value):
        bad = json.loads(json.dumps(NONSIMPLE_SPEC))
        if field in ("rank", "loop_vars", "family", "cocycle"):
            bad["algebra"][field] = value
        else:
            bad[field] = value
        code = main(["simplicity", "--spec", specfile(bad)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


class TestWitnessAndRecover:
    def test_witness_found(self, specfile, capsys):
        code, out = run(capsys, [
            "witness", "--spec", specfile(NONSIMPLE_SPEC), "--maxdeg", "4",
            "--window=-1:1",
        ])
        assert code == 0
        report = json.loads(out)["report"]
        assert report["found"] and report["verified"]
        assert report["witness"] == "H1^3 - H1"

    def test_witness_negative_bounds_exit_2(self, specfile, capsys):
        from torofree.search import MAX_DIM_BOUND

        sl3_edge = {
            "algebra": {"family": "A", "rank": 2, "loop_vars": 0, "variant": "finite"},
            "base_a": ["1", "1"], "base_b": "1/3", "S": [1, 2, 3],
        }
        path = specfile(sl3_edge)
        for flags in (["--maxdeg", "-1"], ["--dim-bound", "-3"],
                      ["--maxdeg", "-1", "--dim-bound", "-3"], ["--maxdeg", "1001"],
                      ["--dim-bound", str(MAX_DIM_BOUND + 1)]):
            code, out = run(capsys, ["witness", "--spec", path, *flags])
            assert code == 2 and out == ""
        code, out = run(capsys, ["witness", "--spec", path, "--maxdeg", "4"])
        assert code == 0 and json.loads(out)["report"]["found"]

    def test_witness_at_the_dim_bound_ceiling_builds_no_irrep(self, specfile, capsys,
                                                              monkeypatch):
        # M(l = 1, b = -3, S = FULL) is simple: its point-set closure ends at
        # a ray, so the report is the full scan's with no irrep built
        from torofree import search

        calls = []
        for name in ("build_irrep_A", "nullspace"):
            monkeypatch.setattr(search, name, lambda *args, f=getattr(search, name), name=name:
                                calls.append(name) or f(*args))
        spec = {"algebra": {"family": "A", "rank": 1, "loop_vars": 0, "variant": "finite"},
                "base_a": ["1"], "base_b": "-3", "S": [1, 2]}
        code, out = run(capsys, ["witness", "--spec", specfile(spec), "--maxdeg", "4",
                                 "--dim-bound", "500"])
        assert code == 0 and calls == []
        assert out == (
            '{"command":"witness","report":{"checked_degree_bound":4,"checked_dim_bound":500,'
            '"checked_loop_window":[[]],"found":false,"notes":"no witness at the searched bounds",'
            '"quotient_cert":null,"verified":false,"witness":null},"spec":{"S":[1,2],"algebra":'
            '{"family":"A","loop_vars":0,"rank":1,"variant":"finite"},"base_a":["1"],'
            '"base_b":"-3"}}\n'
        )

    def test_witness_help_states_the_dim_bound_ceiling(self, capsys):
        from torofree.search import MAX_DIM_BOUND

        with pytest.raises(SystemExit):
            main(["witness", "--help"])
        assert f"MAX_DIM_BOUND = {MAX_DIM_BOUND}" in " ".join(capsys.readouterr().out.split())

    def test_recover_round_trip(self, specfile, capsys):
        code, out = run(capsys, [
            "recover", "--spec", specfile(FULL_SPEC), "--window=-1:1",
        ])
        assert code == 0
        rec = json.loads(out)["recovered"]
        assert rec["lambda"] == ["2"] and rec["witt_a"] == "0"

    def test_iso_compares_the_action(self, specfile, capsys):
        # at l = 1, M(a, b, FULL) and M(-a, -b-1, {}) act identically
        flip = json.loads(json.dumps(NONSIMPLE_SPEC))
        flip.update(base_a=["-1"], base_b="-2", S=[])
        a = specfile(NONSIMPLE_SPEC, "a.json")
        b = specfile(flip, "b.json")
        code, out = run(capsys, ["iso", "--spec", a, "--spec2", b])
        assert code == 0 and json.loads(out)["isomorphic"] is True

    def test_iso(self, specfile, capsys):
        a = specfile(FULL_SPEC, "a.json")
        b = specfile(dict(FULL_SPEC, witt_a="5"), "b.json")
        code, out = run(capsys, ["iso", "--spec", a, "--spec2", b])
        assert code == 0 and json.loads(out)["isomorphic"] is False
        code, out = run(capsys, ["iso", "--spec", a, "--spec2", a])
        assert code == 0 and json.loads(out)["isomorphic"] is True


class TestVerifyCommand:
    def test_pass_exit_zero(self, specfile, capsys):
        code, out = run(capsys, [
            "verify", "--spec", specfile(FULL_SPEC), "--samples", "3",
            "--window=-1:1", "--seed", "5",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        names = {r["name"] for r in payload["reports"]}
        assert "bracket_compat" in names and "freeness" in names


class TestCountBounds:
    @pytest.mark.parametrize("argv", [
        ["lemma-pa", "--hvars", "0"],
        ["lemma-pa", "--dvars", "-1"],
        ["lemma-pa", "--hvars", str(10**30)],
        ["lemma-pa", "--hvars", "17"],
        ["lemma-pa", "--dvars", "9"],
        ["lemma-pa", "--samples", "-1"],
        ["verify", "--samples", "-1"],
    ])
    def test_out_of_range_counts_exit_2(self, specfile, capsys, argv):
        if argv[0] == "verify":
            argv = argv + ["--spec", specfile(FULL_SPEC), "--window=-1:1"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_largest_counts_run(self, capsys):
        code, out = run(capsys, ["lemma-pa", "--hvars", "16", "--dvars", "8",
                                 "--samples", "1"])
        assert code == 0 and json.loads(out)["report"]["cases_run"] == 16


class TestDeterminism:
    def test_byte_identical_outputs(self, specfile, tmp_path, capsys):
        spec = specfile(FULL_SPEC)
        for cmd in (
            ["verify", "--spec", spec, "--samples", "2", "--window=-1:1", "--seed", "7"],
            ["witness", "--spec", spec, "--maxdeg", "3", "--window=-1:1"],
            ["simplicity", "--spec", spec],
            ["lemma-pa", "--samples", "10", "--seed", "3"],
        ):
            out1 = tmp_path / "o1.json"
            out2 = tmp_path / "o2.json"
            assert main(cmd + ["--out", str(out1)]) == main(cmd + ["--out", str(out2)])
            capsys.readouterr()
            assert out1.read_bytes() == out2.read_bytes()

    def test_seed_env_override(self, specfile, capsys, monkeypatch):
        monkeypatch.setenv("TOROFREE_SEED", "99")
        code, out = run(capsys, ["lemma-pa", "--samples", "5"])
        assert code == 0
        assert json.loads(out)["report"]["seed"] == 99


class TestSpecNormalization:
    def test_round_trip_idempotent(self, specfile, capsys):
        # parse -> serialize is stable after one normalization pass
        from torofree.repmods import spec_from_json, spec_to_json

        messy = {
            "algebra": {"family": "A", "rank": 1, "loop_vars": 1,
                        "variant": "full", "cocycle": ["1", 0]},
            "lambda": ["4/2"], "witt_a": 0, "base_a": [2], "base_b": 3, "S": [1],
        }
        once = spec_to_json(spec_from_json(messy))
        twice = spec_to_json(spec_from_json(once))
        assert once == twice


class TestFormulas:
    def test_writes_doc(self, tmp_path, capsys):
        doc = tmp_path / "c_res.md"
        code, out = run(capsys, ["formulas", "--rank", "2", "--doc", str(doc)])
        assert code == 0
        text = doc.read_text()
        assert "x_l . g" in text and "(A - 3/4)(A - 1/4)" in text
        assert json.loads(out)["text"] == text

    def test_rank_above_the_cap_exits_2_quickly(self, capsys):
        start = time.perf_counter()
        code = main(["formulas", "--rank", str(MAX_FORMULA_RANK + 1)])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 1
        assert code == 2 and captured.out == ""
        assert f"at most {MAX_FORMULA_RANK}" in captured.err

    def test_rank_at_the_cap_runs(self, capsys):
        code, out = run(capsys, ["formulas", "--rank", str(MAX_FORMULA_RANK)])
        text = json.loads(out)["text"]
        assert code == 0 and text.count(f"S={{}}: x_{MAX_FORMULA_RANK}.1") == 1

    def test_concrete_values_header_names_the_rank(self, capsys):
        headers = {}
        for rank in (2, 3):
            code, out = run(capsys, ["formulas", "--rank", str(rank)])
            assert code == 0
            headers[rank] = [line for line in json.loads(out)["text"].splitlines()
                             if line.startswith("Concrete")]
        assert headers == {2: ["Concrete sp_4 values with a = (1, 1):"],
                           3: ["Concrete sp_6 values with a = (1, 1, 1):"]}

    @pytest.mark.parametrize("flag,target", [("--out", "."), ("--doc", "."),
                                             ("--out", "missing/x.json"),
                                             ("--rank", "9" * 30)])
    def test_unwritable_path_or_huge_rank_exit_2(self, tmp_path, capsys, monkeypatch,
                                                 flag, target):
        monkeypatch.chdir(tmp_path)
        code = main(["formulas", flag, target])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.startswith("error: ")


# -- malformed argv -------------------------------------------------------------

WITT_SPEC = {
    "algebra": {"family": "A", "rank": 0, "loop_vars": 1, "variant": "witt"},
    "lambda": ["3"], "witt_a": "-1",
}
FUZZ_FILES = {"full.json": FULL_SPEC, "a1.json": NONSIMPLE_SPEC, "c2.json": C_SPEC,
              "witt.json": WITT_SPEC, "list.json": [1, 2]}
JUNK = st.text(alphabet="xyhKDdH0123456789()-,:^*/ .=", max_size=6)


def _values(*fixed: str):
    return st.one_of(st.sampled_from(fixed), JUNK)


# small counts only: a large valid count is slow, not malformed
COUNT = _values("-1", "0", "1", "2", "x", "1.5", "")
FLAG_VALUES = {
    "--spec": _values(*FUZZ_FILES, "notjson.json", "dir", "missing.json", ""),
    "--gen": _values("x1(2)", "y1", "h1(-1)", "K1(1)", "D1(2)", "d1", "x0", "x1(1,2)",
                     "d1(1)", "z1", "x1(", "h1(1{})".format("0" * 3999), "h" + "9" * 5000),
    "--poly": _values("1", "d1*H1", "H1^2 - 1/3", "H2", "1/0", "H1^-1", "+", "d1 d1"),
    "--window": _values("-1:1", "0:0", "1:-1", "a:b", "-1", ":"),
    "--out": _values("out.json", "dir", "missing/out.json", ""),
    "--doc": _values("doc.txt", "dir", "notjson.json/doc.txt", ""),
    "--seed": _values("7", "-1", "9" * 30, "9" * 5000),
    "--rank": _values("2", "3", "1", "0", "-2", "9" * 30),
    "--hvars": _values("1", "2", "0", "17", "9" * 30),
    "--dvars": _values("0", "1", "-1", "9", "9" * 30),
    "--samples": COUNT, "--maxdeg": COUNT, "--dim-bound": COUNT,
}
COMMAND_FLAGS = {
    "act": ["--spec", "--gen", "--poly"],
    "verify": ["--spec", "--samples", "--window"],
    "simplicity": ["--spec"],
    "witness": ["--spec", "--maxdeg", "--window", "--dim-bound"],
    "recover": ["--spec", "--window"],
    "iso": ["--spec", "--spec2"],
    "lemma-pa": ["--samples", "--hvars", "--dvars"],
    "formulas": ["--rank", "--doc"],
}


@st.composite
def argvs(draw):
    """A subcommand with each of its flags present or not, values valid or
    malformed, in any order, then junk tokens inserted and tokens dropped."""
    command = draw(st.sampled_from([*COMMAND_FLAGS, "bogus"]))
    pairs = []
    for flag in COMMAND_FLAGS.get(command, []) + ["--out", "--pretty", "--seed"]:
        if draw(st.integers(0, 3)):
            if flag == "--pretty":
                pairs.append([flag])
            else:
                value = draw(FLAG_VALUES["--spec" if flag == "--spec2" else flag])
                pairs.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    tokens = [t for pair in draw(st.permutations(pairs)) for t in pair]
    for _ in range(draw(st.integers(0, 2))):
        extra = draw(st.one_of(JUNK, st.sampled_from([*FLAG_VALUES, "--pretty", "--bogus"])))
        tokens.insert(draw(st.integers(0, len(tokens))), extra)
    if tokens and draw(st.integers(0, 3)) == 0:
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    return [command, *tokens]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, data in FUZZ_FILES.items():
        (root / name).write_text(json.dumps(data))
    (root / "notjson.json").write_text("{not json")
    (root / "dir").mkdir()
    return root


@settings(max_examples=150, deadline=None)
@given(argv=argvs())
def test_malformed_argv_exits_cleanly(fuzz_dir, argv):
    """Every argv ends in exit 0, 1 or 2, never in a traceback."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(fuzz_dir)  # relative --out and --doc values land in the fixture
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own usage errors and --help
                code = exc.code
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
