import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mdcrt.cli import main
from mdcrt.simkit import RAW_HEADER

try:
    import resource
except ImportError:  # not POSIX
    resource = None

# environment of a child interpreter that imports this checkout's package
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestNormalFormCommands:
    def test_hnf(self, capsys):
        rc, out, _ = run(capsys, "hnf", "[[2,4],[1,3]]")
        assert rc == 0
        assert "h = [[2,0],[0,1]]" in out

    def test_snf(self, capsys):
        rc, out, _ = run(capsys, "snf", "[[4,0],[0,6]]")
        assert rc == 0
        assert "lambda = [[2,0],[0,12]]" in out

    def test_malformed_exits_2_with_offset(self, capsys):
        rc, _, err = run(capsys, "hnf", "[[2,4],[1,3")
        assert rc == 2
        assert "offset" in err

    @pytest.mark.parametrize("literal", ["[[1.5,0],[0,1]]", "[[True,0],[0,1]]"])
    def test_non_integer_entry_exits_2(self, capsys, literal):
        rc, out, err = run(capsys, "hnf", literal)
        assert rc == 2
        assert out == ""
        assert "matrix must be a list of integer rows, found " in err

    def test_long_misplaced_value_quoted_in_part(self, capsys):
        rc, out, err = run(capsys, "hnf", "[[[" + "1," * 20000 + "1]]]")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: matrix must be a list of integer rows, found [1, 1, ")
        assert err.endswith("... (60003 characters)\n")

    def test_hnf_of_a_tall_block_exits_2(self, capsys):
        rc, out, err = run(capsys, "hnf", "[[1],[2]]")
        assert rc == 2
        assert out == ""
        assert err == "error: block has rank below its row count\n"

    @pytest.mark.parametrize(
        "literal, diagonal",
        [("[[0,0],[0,0]]", "[[0,0],[0,0]]"), ("[[1,2],[2,4]]", "[[1,0],[0,0]]")],
        ids=["zero", "rank-one"],
    )
    def test_snf_of_a_singular_matrix(self, capsys, literal, diagonal):
        rc, out, _ = run(capsys, "snf", literal)
        assert rc == 0
        assert out.startswith(f"lambda = {diagonal}\n")

    def test_gcld(self, capsys):
        rc, out, _ = run(capsys, "gcld", "[[22,-17],[17,22]]", "[[22,17],[-17,22]]")
        assert rc == 0
        assert "det = 1" in out

    def test_lcrm(self, capsys):
        rc, out, _ = run(capsys, "lcrm", "[[3,1],[2,2]]", "[[2,2],[1,3]]")
        assert rc == 0
        assert "lcrm = [[4,0],[0,4]]" in out

    def test_lcrm_of_one_non_square_block_exits_2(self, capsys):
        """A single 1x2 block used to print ``lcrm = [[2]]`` and exit 0."""
        rc, out, err = run(capsys, "lcrm", "[[2,4]]")
        assert rc == 2
        assert out == ""
        assert "error: matrices must be square of equal size, got 1x2" in err


class TestCrtCommand:
    def test_worked_pair(self, capsys):
        rc, out, _ = run(
            capsys,
            "crt",
            "--congruence", "[[3,1],[2,2]]", "[2,1]",
            "--congruence", "[[2,2],[1,3]]", "[2,1]",
        )
        assert rc == 0
        assert out == "value = [2,1]\nlcrm = [[4,0],[0,4]]\n"

    def test_no_congruence_exits_2(self, capsys):
        rc, out, err = run(capsys, "crt")
        assert rc == 2
        assert out == ""
        assert err == "error: need at least one --congruence MODULUS REMAINDER\n"

    def test_inconsistent_exits_3(self, capsys):
        rc, _, err = run(
            capsys,
            "crt",
            "--congruence", "[[2,0],[0,2]]", "[0,0]",
            "--congruence", "[[2,0],[0,2]]", "[1,0]",
        )
        assert rc == 3
        assert "inconsistent" in err

    @pytest.mark.parametrize(
        "remainder, message",
        [
            ("foo", "malformed vector literal (offset 0): 'foo'"),
            ("[True,0]", "vector must be a flat integer list, found True"),
        ],
    )
    def test_bad_remainder_exits_2(self, capsys, remainder, message):
        rc, _, err = run(capsys, "crt", "--congruence", "[[2,0],[0,2]]", remainder)
        assert rc == 2
        assert message in err
        assert "ast." not in err


    @pytest.mark.parametrize(
        "modulus, remainder, message",
        [
            ("[[2,0],[0,2]]", "[1,2,3]", "length"),
            ("[[2,4],[1,2]]", "[1,1]", "nonsingular"),
        ],
        ids=["wrong-length-remainder", "singular-modulus"],
    )
    def test_bad_congruence_exits_2(self, capsys, modulus, remainder, message):
        rc, out, err = run(
            capsys, "crt", "--congruence", modulus, remainder, "--congruence", "[[3,0],[0,3]]", "[1,1]"
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and message in err


class TestSearchCommands:
    def test_svp_search_prime(self, capsys):
        rc, out, _ = run(capsys, "svp-search", "--prime", "3257")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "prime,d,sqrt_d_f,floor_sqrt_p,achiever_count,first_achiever"
        fields = lines[1].split(",")
        assert fields[0] == "3257" and fields[1] == "3730" and fields[3] == "57"

    def test_svp_search_range(self, capsys):
        rc, out, _ = run(capsys, "svp-search", "--range", "2", "20")
        assert rc == 0
        assert len(out.strip().splitlines()) == 1 + 8  # primes 2..19

    @pytest.mark.parametrize("bounds", [("10", "5"), ("24", "28")])
    def test_svp_search_range_without_primes_exits_2(self, capsys, bounds):
        """A range with no prime used to print a bare CSV header and exit 0."""
        rc, out, err = run(capsys, "svp-search", "--range", *bounds)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: --range ") and "holds no prime" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            ((), "one of the arguments --prime --range is required"),
            (("--prime", "7", "--range", "2", "20"), "argument --range: not allowed with argument --prime"),
        ],
        ids=["neither", "both"],
    )
    def test_svp_search_needs_exactly_one_of_prime_and_range(self, capsys, flags, message):
        """Both flags used to print prime 7's row and ignore ``--range``."""
        with pytest.raises(SystemExit) as exc:
            main(["svp-search", *flags])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err

    @pytest.mark.skipif(resource is None, reason="needs POSIX resource limits")
    @pytest.mark.parametrize(
        "argv",
        [("drange", "--q", "10000000000"), ("svp-search", "--range", "2", "10000000000")],
        ids=["drange", "svp-search"],
    )
    def test_sieve_too_large_to_allocate_exits_2(self, argv):
        """A 10^10-entry prime sieve cannot be allocated in a 400 MB address
        space: the command exits 2 with one error line instead of a
        MemoryError traceback. The limit caps only the child process."""

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

        proc = subprocess.run(
            [sys.executable, "-m", "mdcrt.cli", *argv],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
            preexec_fn=cap_address_space,
            timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: MemoryError\n")

    def test_drange(self, capsys):
        rc, out, _ = run(capsys, "drange", "--q", "10", "--dim", "2")
        assert rc == 0
        assert "product = 2520" in out
        assert "range = 6350400" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("drange", "--q", "5", "--dim", "0"),
            ("drange", "--q", "0"),
            ("svp-search", "--prime", "4"),
            ("svp-search", "--prime", "1"),
        ],
    )
    def test_bad_input_prints_nothing(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_drange_prints_past_the_default_digit_limit(self, capsys):
        """The range for q = 9000 has more digits than Python's default
        int-to-str limit (4300); the call prints it and leaves the limit as
        it found it."""
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        rc, out, _ = run(capsys, "drange", "--q", "9000")
        assert rc == 0
        assert len(out.splitlines()[-1].removeprefix("range = ")) > 4300
        if limit is not None:
            assert sys.get_int_max_str_digits() == limit

    def test_lcrm_prints_past_the_default_digit_limit(self, capsys):
        # 10^2500 + 1 and 10^2500 + 3: coprime, 2501 digits each; their
        # product, the lcrm's entry and det, has 5001
        a, b = ("1" + "0" * 2499 + d for d in "13")
        product = "1" + "0" * 2499 + "4" + "0" * 2499 + "3"
        rc, out, _ = run(capsys, "lcrm", f"[[{a},0],[0,1]]", f"[[{b},0],[0,1]]")
        assert rc == 0
        assert out.splitlines() == [f"lcrm = [[{product},0],[0,1]]", f"det = {product}"]

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
    def test_failure_while_formatting_prints_nothing(self, capsys):
        """The product of the coprime set below 2000 has more than 640
        digits: formatting it fails after ``q`` and ``members`` are
        formatted, and neither line may reach stdout."""
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            rc, out, err = run(capsys, "drange", "--q", "2000")
        finally:
            sys.set_int_max_str_digits(limit)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ")


class TestConfigs:
    # a grouping that declares no stage gives multistage nothing to run
    EMPTY_GROUPING_CFG = (
        "moduli = [[[6,0],[0,6]],[[10,0],[0,10]],[[15,0],[0,15]]]\ngrouping = []\n"
        "reconstructors = single,multistage\ntau_grid = [1]\ntrials = 3\n"
    )

    def test_unhashable_literal_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("moduli = {[1]}\n")
        rc, _, err = run(capsys, "robust", str(bad))
        assert rc == 2
        assert "malformed 'moduli' literal (offset 0)" in err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("moduli = [[[2,0],[0,2]]]\nwhat = 3\n")
        rc, _, err = run(capsys, "robust", str(bad))
        assert rc == 2
        assert "unknown key" in err

    def test_out_is_not_a_config_key(self, tmp_path, capsys):
        """The output path is the ``--out`` option alone."""
        bad = tmp_path / "bad.cfg"
        bad.write_text("moduli = [[[2,0],[0,2]],[[3,0],[0,3]]]\ntau_grid = [1]\nout = x.csv\n")
        rc, out, err = run(capsys, "simulate", str(bad))
        assert rc == 2
        assert out == ""
        assert "unknown key 'out'" in err


    @pytest.mark.parametrize(
        "lines, key",
        [
            ("moduli = [1,2]", "moduli"),
            ("moduli = [[1,2],[3,4]]", "moduli"),
            ("moduli = [[[1.5,0],[0,2]]]", "moduli"),
            ("moduli = [[[True,0],[0,2]]]", "moduli"),
            ("moduli = [[[2,0],[0,2]],[[3,0],[0,3]]]\ngrouping = 5", "grouping"),
            ("moduli = [[[2,0],[0,2]],[[3,0],[0,3]]]\ngrouping = [[0,1]]", "grouping"),
        ],
        ids=["flat-moduli", "one-matrix-moduli", "float-entry", "bool-entry", "int-grouping", "one-stage-grouping"],
    )
    def test_shape_errors_exit_2(self, tmp_path, capsys, lines, key):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"{lines}\ntau_grid = [1]\ntrials = 2\n")
        rc, out, err = run(capsys, "simulate", str(bad))
        assert rc == 2
        assert out == ""
        assert f"error: '{key}' must be" in err

    @pytest.mark.parametrize("value", ["[1,2,3]", "[5]"], ids=["too-long", "too-short"])
    def test_explicit_f_of_wrong_length_exits_2(self, tmp_path, capsys, value):
        """It used to fail later as a 2x2 modulus applied to the vector."""
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"moduli = [[[2,0],[0,2]],[[3,0],[0,3]]]\ntau_grid = [1]\ntrials = 2\nf = {value}\n")
        rc, out, err = run(capsys, "simulate", str(bad))
        assert rc == 2
        assert out == ""
        assert f"error: 'f' must have length 2, the moduli's dimension, found {value.replace(',', ', ')}" in err

    @pytest.mark.parametrize(
        "line, key",
        [("trials = 2.5", "trials"), ("trials = x", "trials"), ("seed = x", "seed"), ("seed = 1.0", "seed")],
    )
    def test_non_integer_count_exits_2(self, tmp_path, capsys, line, key):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"moduli = [[[2,0],[0,2]],[[3,0],[0,3]]]\ntau_grid = [1]\n{line}\n")
        rc, out, err = run(capsys, "simulate", str(bad))
        assert rc == 2
        assert out == ""
        assert f"error: '{key}' must be an integer, found '{line.split(' = ')[1]}'" in err

    @pytest.mark.parametrize(
        "value, message",
        [
            (",", "'reconstructors' must name at least one reconstructor, found ','"),
            ("", "'reconstructors' must name at least one reconstructor, found ''"),
            ("single,single", "'reconstructors' names 'single' twice"),
            ("single, multistage ,single", "'reconstructors' names 'single' twice"),
            ("double", "unknown reconstructor 'double'"),
        ],
        ids=["comma-only", "blank", "repeat", "repeat-after-other", "unknown"],
    )
    def test_reconstructor_list_errors_exit_2(self, tmp_path, capsys, value, message):
        """An empty list used to fail later as 'reconstructor None', and a
        repeated name ran its sweep twice."""
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            "moduli = [[[2,0],[0,2]],[[3,0],[0,3]]]\ngrouping = [[[0],[1]]]\n"
            f"reconstructors = {value}\ntau_grid = [1]\ntrials = 2\n"
        )
        rc, out, err = run(capsys, "simulate", str(bad))
        assert rc == 2
        assert out == ""
        assert f"error: {message}" in err

    @pytest.mark.parametrize("command", ["simulate", "robust", "multistage"])
    @pytest.mark.parametrize("grid", ["", "tau_grid = []\n"], ids=["no-grid", "empty-grid"])
    def test_sweep_without_taus_exits_2(self, tmp_path, capsys, command, grid):
        """A sweep over no taus used to print a bare CSV header and exit 0."""
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            "moduli = [[[2,0],[0,2]],[[3,0],[0,3]]]\ngrouping = [[[0],[1]]]\n"
            f"reconstructors = single,multistage\n{grid}trials = 2\n"
        )
        rc, out, err = run(capsys, command, str(bad))
        assert rc == 2
        assert out == ""
        assert "error: 'tau_grid' must list at least one tau" in err

    @pytest.mark.parametrize(
        "text, argv, message",
        [
            (
                "moduli = [[[2,0],[0,2]],[[3,0,0],[0,3,0],[0,0,3]]]\ntau_grid = [1]\n",
                ["simulate"],
                "'moduli' must all be square matrices of one dimension",
            ),
            (
                "moduli = [[[2,0],[0,2]],[[3,0],[0,3]]]\nreconstructors = multistage\ntau_grid = [1]\n",
                ["simulate"],
                "reconstructor 'multistage' requires a 'grouping'",
            ),
            (
                "moduli = [[[2,0],[0,2]],[[3,0],[0,3]]]\ntau_grid = [1]\n",
                ["multistage"],
                "config does not enable reconstructor 'multistage'",
            ),
            (
                "moduli = [[[2,0],[0,2]],[[3,0],[0,3]]]\n",
                ["multistage", "--remainders", "[1,1]", "[1,1]"],
                "reconstructor 'multistage' requires a 'grouping'",
            ),
            (
                EMPTY_GROUPING_CFG,
                ["simulate"],
                "reconstructor 'multistage' requires a 'grouping'",
            ),
            (
                EMPTY_GROUPING_CFG,
                ["multistage", "--remainders", "[1,1]", "[1,1]", "[1,1]"],
                "reconstructor 'multistage' requires a 'grouping'",
            ),
            (
                "moduli = [[[2,0],[0,2]]]\ntau_grid\n",
                ["simulate"],
                "line 2: expected 'key = value', got 'tau_grid'",
            ),
            (
                "moduli = [[[2,0],[0,2]]]\nmoduli = [[[3,0],[0,3]]]\n",
                ["simulate"],
                "line 2: duplicate key 'moduli'",
            ),
            (
                "tau_grid = [1]\n",
                ["simulate"],
                "missing required key 'moduli'",
            ),
            (
                "moduli = []\ntau_grid = [1]\n",
                ["simulate"],
                "'moduli' must be a non-empty list of matrices",
            ),
            (
                "moduli = [[[2,0],[0,2]],[[3,0],[0,3]]]\ntau_grid = [1,-2]\n",
                ["simulate"],
                "'tau_grid' entries must be nonnegative",
            ),
            (
                "moduli = [[[2,0],[0,2]],[[3,0],[0,3]],[[5,0],[0,5]]]\ngrouping = [[[0,1],[2,5]]]\n"
                "reconstructors = multistage\ntau_grid = [1]\n",
                ["simulate"],
                "stage 1 group 1 references an unknown modulus",
            ),
            (
                # the single-stage sweep does not run (or print its f) before the grouping is read
                "moduli = [[[2,0],[0,2]],[[3,0],[0,3]]]\ngrouping = [[[0,1],[1,5]]]\n"
                "reconstructors = single,multistage\ntau_grid = [1]\ntrials = 1\n",
                ["simulate"],
                "stage 1 group 1 references an unknown modulus",
            ),
            (
                "moduli = [[[2,0],[0,2]],[[3,0],[0,3]],[[5,0],[0,5]]]\ngrouping = [[[0,1,1],[2]]]\n"
                "reconstructors = multistage\ntau_grid = [1]\n",
                ["simulate"],
                "stage 1 group 0 repeats a member",
            ),
        ],
        ids=[
            "mixed-dimension",
            "multistage-without-grouping",
            "multistage-not-enabled",
            "shot-without-grouping",
            "simulate-empty-grouping",
            "shot-empty-grouping",
            "line-without-equals",
            "duplicate-key",
            "missing-moduli",
            "empty-moduli",
            "negative-tau",
            "grouping-index-past-inputs",
            "grouping-past-inputs-after-single",
            "repeated-member",
        ],
    )
    def test_config_errors_exit_2(self, tmp_path, capsys, text, argv, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        rc, out, err = run(capsys, argv[0], str(bad), *argv[1:])
        assert rc == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["robust", "multistage"])
    def test_single_shot_needs_no_taus(self, tmp_path, capsys, command):
        cfg = tmp_path / "shot.cfg"
        cfg.write_text(f"moduli = {TestReconstructionCommands.MODULI}\ngrouping = [[[0,1,2]]]\n")
        rc, out, _ = run(capsys, command, str(cfg), "--remainders", "[1,1]", "[1,1]", "[1,1]")
        assert rc == 0
        assert "estimate = (1,1)" in out


class TestTooDeepLiterals:
    """Literals nested too deep for Python's parser (RecursionError or
    MemoryError inside ``ast.literal_eval`` on CPython 3.11) exit 2 with a
    malformed-literal error, from an argument and from a config file alike."""

    def test_crt_remainder(self, capsys):
        rc, out, err = run(capsys, "crt", "--congruence", "[[2]]", "[" + "-" * 5000 + "1]")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: malformed vector literal ")

    def test_hnf_matrix(self, capsys):
        rc, out, err = run(capsys, "hnf", "[[" + "-" * 100000 + "1]]")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: malformed matrix literal ")
        # the message quotes a prefix of the argument's repr and its length
        assert len(err) < 200
        assert err.endswith("... (100007 characters)\n")

    def test_config_moduli(self, tmp_path, capsys):
        bad = tmp_path / "deep.cfg"
        bad.write_text("moduli = [[[" + "-" * 100000 + "1]]]\ntau_grid = [1]\n")
        rc, out, err = run(capsys, "simulate", str(bad))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: malformed 'moduli' literal ")


class TestReconstructionCommands:
    MODULI = "[[[22,-17],[17,22]],[[335,-272],[294,352]],[[352,-250],[272,369]]]"

    def write_cfg(self, tmp_path, extra=""):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"moduli = {self.MODULI}\n"
            "grouping = [[[0,1,2]]]\n"
            "reconstructors = single,multistage\n"
            "tau_grid = [1,2]\n"
            "trials = 8\n"
            "seed = 77\n"
            "f = centroid\n" + extra
        )
        return str(cfg)

    def test_robust_single_shot(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path)
        rc, out, _ = run(
            capsys, "robust", path,
            "--remainders", "[1,1]", "[1,1]", "[1,1]",
        )
        assert rc == 0
        assert "tau_bound_sq = 773/16" in out
        assert "estimate = (1,1)" in out

    def test_multistage_single_shot(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path)
        rc, out, _ = run(
            capsys, "multistage", path,
            "--remainders", "[1,1]", "[1,1]", "[1,1]",
        )
        assert rc == 0
        assert "estimate = (1,1)" in out

    def test_simulate_csv(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path)
        rc, out, _ = run(capsys, "simulate", path)
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "tau,mean_error,success_rate,trials,reconstructor,seed"
        # two reconstructors, two taus each
        assert len(lines) == 1 + 4
        assert any(",single,77" in l for l in lines[1:])
        assert any(",multistage,77" in l for l in lines[1:])

    def test_simulate_writes_file(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path)
        out_path = tmp_path / "rows.csv"
        rc, _, _ = run(capsys, "simulate", path, "--out", str(out_path))
        assert rc == 0
        assert out_path.read_text().startswith("tau,mean_error")

    @pytest.mark.parametrize("raw", [False, True], ids=["summary", "raw"])
    @pytest.mark.parametrize("command, recon", [("robust", "single"), ("multistage", "multistage")])
    def test_sweep_prints_its_reconstructors_share_of_simulate(self, capsys, command, recon, raw):
        """A ``robust`` or ``multistage`` sweep prints each CSV header and
        exactly its reconstructor's rows of the ``simulate`` output; on
        fig2_nondiag ``simulate`` sweeps single first, then multistage, over
        the same taus and trials, so each holds half of the raw records."""
        flags = ["--trials", "2", *(["--raw"] if raw else [])]
        rc, everything, _ = run(capsys, "simulate", "configs/fig2_nondiag.cfg", *flags)
        assert rc == 0
        lines = everything.splitlines()
        raw_at = lines.index(RAW_HEADER) if raw else len(lines)
        summary, records = lines[:raw_at], lines[raw_at:]
        expected = [summary[0]] + [line for line in summary[1:] if line.split(",")[4] == recon]
        if raw:
            half = (len(records) - 1) // 2
            expected += [records[0]] + (records[1 : 1 + half] if recon == "single" else records[1 + half :])
        rc, out, _ = run(capsys, command, "configs/fig2_nondiag.cfg", *flags)
        assert rc == 0
        assert out == "\n".join(expected) + "\n"

    def test_simulate_takes_no_remainders(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "configs/fig3.cfg", "--remainders", "[1,1]"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --remainders [1,1]" in err

    def test_dimension_cap_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "big.cfg"
        five = "[" + ",".join(
            "[" + ",".join("2" if i == j else "0" for j in range(5)) + "]" for i in range(5)
        ) + "]"
        six = "[" + ",".join(
            "[" + ",".join("3" if i == j else "0" for j in range(5)) + "]" for i in range(5)
        ) + "]"
        cfg.write_text(f"moduli = [{five},{six}]\ntau_grid = [1]\ntrials = 1\n")
        rc, _, err = run(capsys, "robust", str(cfg))
        assert rc == 4
        assert "capability" in err

    @pytest.mark.parametrize("remainders", [["[1,2,3,4,5]"], []], ids=["single-shot", "sweep"])
    def test_dimension_cap_exits_4_for_singleton_plan(self, tmp_path, capsys, remainders):
        # a singleton group is a one-modulus robust instance, so it meets
        # the same dimension cap as every other group
        cfg = tmp_path / "big_singleton.cfg"
        five = str([[2 if i == j else 0 for j in range(5)] for i in range(5)]).replace(" ", "")
        cfg.write_text(
            f"moduli = [{five}]\ngrouping = [[[0]]]\nreconstructors = multistage\ntau_grid = [1]\ntrials = 1\n"
        )
        argv = ["--remainders", *remainders] if remainders else []
        rc, out, err = run(capsys, "multistage", str(cfg), *argv)
        assert rc == 4
        assert out == ""
        assert err.startswith("capability exceeded: ")

    def test_fig3_single_centroid_exits_0(self, tmp_path, capsys):
        # the single-stage region has 4.1e9 points; it is never enumerated
        text = Path("configs/fig3.cfg").read_text()
        keep = [l for l in text.splitlines() if l.startswith(("moduli", "seed"))]
        cfg = tmp_path / "fig3_single.cfg"
        cfg.write_text("\n".join(keep) + "\nreconstructors = single\ntau_grid = [1]\ntrials = 2\nf = centroid\n")
        rc, out, err = run(capsys, "robust", str(cfg))
        assert rc == 0
        assert "# single: f = [" in err
        assert out.startswith("tau,mean_error")

    # f = [891008,895360] from configs/fig3.cfg; every remainder moved by (2,-1)
    SHIFTED = ["[11,12]", "[-63,517]", "[-24,512]", "[27,4]", "[246,151]", "[574,-243]"]
    # the same f with a different error per modulus, each within the
    # two-stage bound and above the single-stage one
    SCATTERED = ["[12,11]", "[-69,519]", "[-26,518]", "[27,7]", "[243,149]", "[577,-242]"]

    @pytest.mark.parametrize(
        "command, remainders, expected",
        [
            ("robust", SHIFTED, [
                "anchor = 0",
                "tau_bound_sq = 1/16",
                "tau_bound_f = 0.25",
                "estimate = (891010,895359)",
                "estimate_f = (891010,895359)",
                "region_size = 3171932504064",
            ]),
            ("multistage", SHIFTED, [
                "final_anchor = 0",
                "per_group_bounds_sq = [773/16,773/16]",
                "delta_final_sq = 256",
                "estimate = (891010,895359)",
                "estimate_f = (891010,895359)",
                "region_size = 3171932504064",
            ]),
            ("multistage", SCATTERED, [
                "final_anchor = 0",
                "per_group_bounds_sq = [773/16,773/16]",
                "delta_final_sq = 256",
                "estimate = (5346053/6,1790721/2)",
                "estimate_f = (891009,895360)",
                "region_size = 3171932504064",
            ]),
        ],
        ids=["robust-shifted", "multistage-shifted", "multistage-scattered"],
    )
    def test_fig3_single_shot_stdout(self, capsys, command, remainders, expected):
        rc, out, err = run(capsys, command, "configs/fig3.cfg", "--remainders", *remainders)
        assert rc == 0
        assert out == "\n".join(expected) + "\n"
        assert err == ""

    def test_fig3_robust_scattered_is_inconsistent(self, capsys):
        rc, out, err = run(capsys, "robust", "configs/fig3.cfg", "--remainders", *self.SCATTERED)
        assert rc == 3
        assert out == ""
        assert err.startswith("inconsistent: ")

    def test_singleton_final_single_shot_stdout(self, tmp_path, capsys):
        # one declared group: the final stage passes its estimate through
        path = self.write_cfg(tmp_path)
        rc, out, _ = run(capsys, "multistage", path, "--remainders", "[1,1]", "[4,-3]", "[1,1]")
        assert rc == 0
        assert out == (
            "final_anchor = 0\n"
            "per_group_bounds_sq = [773/16]\n"
            "delta_final_sq = inf\n"
            "estimate = (2,-1/3)\n"
            "estimate_f = (2,-0.333333)\n"
            "region_size = 50659328\n"
        )

    @pytest.mark.parametrize("remainders", [["[1,1]"], []], ids=["single-shot", "sweep"])
    def test_robust_one_modulus_exits_2(self, tmp_path, capsys, remainders):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("moduli = [[[2,0],[0,2]]]\ntau_grid = [1]\ntrials = 1\n")
        argv = ["--remainders", *remainders] if remainders else []
        rc, out, err = run(capsys, "robust", str(cfg), *argv)
        assert rc == 2
        assert out == ""
        assert "error: a robust instance needs at least two moduli" in err

    @pytest.mark.parametrize("command", ["robust", "multistage"])
    @pytest.mark.parametrize(
        "remainders",
        [["[1,2,3]"] * 6, ["[1,2]", "[1,2]", "[1]", "[1,2]", "[1,2]", "[1,2]"]],
        ids=["all-3-vectors", "one-1-vector"],
    )
    def test_wrong_length_remainders_exit_2(self, capsys, command, remainders):
        rc, out, err = run(capsys, command, "configs/fig3.cfg", "--remainders", *remainders)
        assert rc == 2
        assert out == ""
        assert "error: remainders must have length 2" in err
        assert "zip()" not in err and "capability" not in err

    def test_wrong_length_remainder_without_robust_group_exits_2(self, tmp_path, capsys):
        # a plan with no robust instance still checks the remainder length
        cfg = tmp_path / "one.cfg"
        cfg.write_text("moduli = [[[2,0],[0,2]]]\ngrouping = [[[0]]]\ntau_grid = [1]\ntrials = 1\n")
        rc, out, err = run(capsys, "multistage", str(cfg), "--remainders", "[1,2,3]")
        assert rc == 2
        assert out == ""
        assert "error: remainders must have length 2, got lengths [3]" in err


class TestCountValidation:
    def write_cfg(self, tmp_path, trials=2):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(f"moduli = [[[2,0],[0,2]],[[3,0],[0,3]]]\ntau_grid = [1]\ntrials = {trials}\n")
        return str(cfg)

    def test_config_trials_zero_exits_2(self, tmp_path, capsys):
        rc, _, err = run(capsys, "simulate", self.write_cfg(tmp_path, trials=0))
        assert rc == 2
        assert "'trials' must be a positive integer" in err

    @pytest.mark.parametrize("flag", ["--trials", "--jobs"])
    def test_flag_below_one_exits_2(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", self.write_cfg(tmp_path), flag, "0"])
        assert exc.value.code == 2
        assert f"argument {flag}: must be a positive integer" in capsys.readouterr().err

    def test_non_integer_flag_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", self.write_cfg(tmp_path), "--trials", "abc"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "argument --trials: not an integer: 'abc'" in out.err


class TestBeyondFloatRange:
    """Float columns are display-only: a value beyond the float range prints
    as ``inf``, and the exact columns and the exit code do not change."""

    @staticmethod
    def diag_pair(tmp_path, a, b, extra=""):
        cfg = tmp_path / "big.cfg"
        moduli = f"[[[{a[0]},0],[0,{a[1]}]],[[{b[0]},0],[0,{b[1]}]]]"
        cfg.write_text(f"moduli = {moduli}\ntau_grid = [1,2]\n{extra}")
        return str(cfg)

    def test_simulate_error_square_beyond_float_range(self, tmp_path, capsys):
        # a wrong decode misses f by up to ~10^200: its squared norm
        # overflows a float, the norm does not
        g = 10**100
        extra = "reconstructors = single\ntrials = 20\nseed = 1\nf = per-trial\n"
        path = self.diag_pair(tmp_path, (1, g + 1), (1, g + 3), extra)
        rc, out, err = run(capsys, "simulate", path, "--raw")
        assert rc == 0 and err == ""
        summary, raw = out.split("tau,trial,err_norm,success\n")
        means = [float(line.split(",")[1]) for line in summary.splitlines()[1:]]
        assert len(means) == 2 and all(math.isfinite(x) for x in means)
        assert max(float(line.split(",")[2]) for line in raw.splitlines()) > 1e155

    def test_simulate_norm_beyond_float_range(self, tmp_path, capsys):
        # here a wrong decode misses f by ~10^320, past the float range
        g = 10**160
        extra = "reconstructors = single\ntrials = 20\nseed = 1\nf = per-trial\n"
        rc, out, err = run(capsys, "simulate", self.diag_pair(tmp_path, (1, g + 1), (1, g + 3), extra))
        assert rc == 0 and err == ""
        assert [line.split(",")[1] for line in out.splitlines()[1:]] == ["inf", "inf"]

    def test_robust_estimate_beyond_float_range(self, tmp_path, capsys):
        g = 10**400
        path = self.diag_pair(tmp_path, (1, g + 1), (1, g + 3))
        rc, out, err = run(capsys, "robust", path, "--remainders", f"[0,{g}]", f"[0,{g}]")
        assert rc == 0 and err == ""
        assert f"estimate = (0,{g})\nestimate_f = (0,inf)\n" in out

    def test_robust_bound_beyond_float_range(self, tmp_path, capsys):
        # lambda^2 / 16 = 10^320 / 16 overflows a float, its root does not
        g = 10**160
        path = self.diag_pair(tmp_path, (2 * g, 2 * g), (3 * g, 3 * g))
        rc, out, err = run(capsys, "robust", path, "--remainders", "[0,0]", "[0,0]")
        assert rc == 0 and err == ""
        assert f"tau_bound_sq = {g * g // 16}\ntau_bound_f = 2.5e+159\n" in out


def test_cli_import_loads_no_process_pool():
    """Only a sweep with ``--jobs`` above 1 opens a process pool, so importing
    the CLI loads neither ``concurrent.futures`` nor ``multiprocessing``."""
    code = (
        "import sys, mdcrt.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n")
