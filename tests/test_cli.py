"""CLI surface: commands, formats, exit codes, determinism, lattice cache."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import btspec.cache as cache_mod
import btspec.lattice as lattice_mod
from btspec.cache import cache_load, cache_path, cache_store, spec_cache_key
from btspec.cli import MAX_MESSAGE, Session, build_parser, cmd_marks, run
from btspec.errors import SpecParseError, SpecRangeError
from btspec.ghost import ALL_AXIOMS
from btspec.groups import (
    DEFAULT_MAX_ORDER, MAX_DEGREE, MAX_GENERATORS, MAX_ORDER, group_from_text, parse_group_spec,
)
from btspec.lattice import MAX_SUBGROUPS, conjugates, subgroup_lattice
from btspec.spectrum import MAX_EXTRA_PRIMES

from conftest import C2_3, C2_5, C2_7, C2_S6, C840, CORPUS, labels_for, system_for
from oracles import normalizer_bits


@pytest.fixture()
def invoke(tmp_path, capsys):
    def _invoke(*argv, cache=False):
        base = [] if cache else ["--no-cache"]
        if cache:
            base = ["--cache-dir", str(tmp_path / "cache")]
        code = run(base + list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _invoke


class TestExitCodes:
    def test_success(self, invoke):
        code, out, _ = invoke("subgroups", "S3")
        assert code == 0 and "4 conjugacy classes" in out

    def test_usage_error_bad_quaternion(self, invoke):
        code, _, err = invoke("spec", "Q6")
        assert code == 2 and "quaternion" in err

    def test_usage_error_bad_spec(self, invoke):
        code, _, err = invoke("subgroups", "Z9")
        assert code == 2

    def test_usage_error_unknown_command(self, invoke):
        assert invoke("frobnicate", "A4")[0] == 2

    def test_help_exits_zero_with_usage_on_stdout(self, invoke):
        code, out, err = invoke("--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: btspec ")

    def test_usage_error_nonprime_residual(self, invoke):
        code, _, err = invoke("residual", "A4", "--prime", "6")
        assert code == 2

    def test_domain_error_order_exceeded(self, invoke):
        code, _, err = invoke("--max-order", "10", "subgroups", "S4")
        assert code == 1 and "max_order" in err

    def test_domain_error_unknown_label(self, invoke):
        code, _, err = invoke("marks", "A4", "--level", "C5")
        assert code == 1 and "unknown class label" in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_usage_error_max_order_below_one(self, invoke, value):
        code, out, err = invoke("--max-order", value, "subgroups", "S3")
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and "--max-order" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", [str(MAX_ORDER + 1), "50000"])
    def test_usage_error_max_order_above_bound(self, invoke, value):
        code, out, err = invoke("--max-order", value, "subgroups", "C2")
        assert code == 2 and out == ""
        assert err == f"usage error: --max-order must be <= {MAX_ORDER}, got {value}\n"

    def test_one_usage_error_type(self):
        from btspec import cli, errors

        for exc in (SpecParseError, SpecRangeError, errors.PrimeCountError):
            assert issubclass(exc, errors.UsageError)
        assert issubclass(errors.UsageError, errors.BtspecError)
        assert not hasattr(cli, "_UsageError")

    def test_max_order_bound_is_inclusive(self, invoke):
        assert invoke("--max-order", str(MAX_ORDER), "subgroups", "C2")[0] == 0

    def test_coinduce_cap_flag_is_refused(self, invoke):
        code, out, err = invoke("verify", "--coinduce-cap", "5", "S3")
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and "--coinduce-cap" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flags", [("--seed", "x"), ("verify", "A4", "--seed", "x")])
    def test_bad_seed_names_its_type(self, invoke, flags):
        code, out, err = invoke(*flags)
        assert code == 2 and out == ""
        assert err == "usage error: argument --seed: invalid integer value: 'x'\n"

    @pytest.mark.parametrize("value,seed", [("0x10", 16), ("0b101", 5), ("-7", -7), ("12", 12)])
    def test_seed_accepts_int_literals(self, value, seed):
        assert build_parser().parse_args(["--seed", value, "verify", "S3"]).seed == seed

    def test_prime_beyond_64_bits_is_refused(self, invoke):
        code, out, err = invoke("residual", "A4", "--prime", str(2**64))
        assert code == 2 and out == ""
        assert err == f"usage error: --prime must be below 2^64, got {2**64}\n"

    def test_huge_prime_is_checked_in_bounded_time(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "btspec.cli", "--no-cache", "residual", "A4",
             "--prime", "1000000000000000003"],
            capture_output=True, env=env, timeout=30,
        )
        assert proc.returncode == 0 and proc.stderr == b""
        assert proc.stdout.startswith(b"p-residual subgroups O^1000000000000000003 for A4\n")


class TestDegreeBound:
    # Each spec needs more than MAX_DEGREE points; none may be allocated.
    @pytest.mark.parametrize(
        "spec",
        [
            "perm:(0 99999999)",
            f"perm:(0 {MAX_DEGREE})",
            "C100000007",
            f"C{2 ** 13}",
            "D100000000",
            "Q400000000",
            "S100000000",
            "A100000000",
        ],
    )
    def test_rejected_before_allocation(self, invoke, spec):
        code, out, err = invoke("spec", spec)
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and str(MAX_DEGREE) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("letter", "CDQSA")
    def test_long_parameter_is_a_usage_error(self, invoke, letter):
        # int() refuses more than 4300 digits; such an n needs far more points.
        spec = letter + "1" * 4301
        with pytest.raises(SpecRangeError, match=f"needs more than {MAX_DEGREE} permutation points"):
            parse_group_spec(spec)
        code, out, err = invoke("subgroups", spec)
        assert code == 2 and out == ""
        assert err.startswith(f"usage error: '{letter}111") and err.endswith("...\n")
        assert err.count("\n") == 1

    def test_leading_zeros_are_not_digits(self, invoke):
        code, out, err = invoke("spec", "C" + "0" * 5000 + "6")
        assert (code, err) == (0, "") and out == invoke("spec", "C6")[1]

    @pytest.mark.parametrize("digits", [40, 4301, 20000])
    def test_long_perm_point_reads_as_a_large_one(self, invoke, digits):
        # int() refuses more than 4300 digits; past that a point is reported
        # as a 40-digit one is, with the checks in the same order.
        big, other = "1" * digits, "2" + "1" * (digits - 1)
        degree = (SpecRangeError, f"needs more than {MAX_DEGREE} permutation points")
        for body, (error, message) in [
            (f"(0 {big})", degree),
            (f"(0 {big})(0 {other})", degree),
            (f"(0 {big} {other})", degree),
            (f"(0 {big}_1)", degree),
            (f"(0 {big} 5 {big})", (SpecParseError, "repeated point in cycle")),
            (f"(0 {big}_1 {big}1)", (SpecParseError, "repeated point in cycle")),
            (f"(0 -{big})", (SpecParseError, "negative point in cycle")),
            (f"(0 {big})(x 1)", (SpecParseError, "non-integer point in cycle '(x 1)'")),
            (f"(0 {big}x)", (SpecParseError, "non-integer point in cycle")),
        ]:
            with pytest.raises(error, match=re.escape(message)):
                parse_group_spec("perm:" + body)
        text = f"'perm:(0 {big})' needs more than {MAX_DEGREE} permutation points"
        clipped = text if len(text) <= MAX_MESSAGE else text[: MAX_MESSAGE - 3] + "..."
        assert invoke("subgroups", f"perm:(0 {big})") == (2, "", f"usage error: {clipped}\n")

    def test_long_perm_point_with_leading_zeros(self):
        spec = parse_group_spec("perm:(0 " + "0" * 5000 + "5)")
        assert spec == parse_group_spec("perm:(0 5)")

    def test_bound_is_inclusive(self):
        for letter in "DQS":
            parse_group_spec(f"{letter}{MAX_DEGREE}")
        parse_group_spec(f"C{2 ** 12}")
        with pytest.raises(SpecRangeError):
            parse_group_spec(f"A{MAX_DEGREE + 1}")


class TestGeneratorBound:
    # Each generator is a full image tuple, so their count is checked first.
    def test_rejected_before_allocation(self, invoke, monkeypatch):
        from btspec import groups

        # The degree check runs once all cycles are read, just before the tuples are built.
        reached = []
        monkeypatch.setattr(groups, "_check_degree", lambda text, degree: reached.append(degree))
        spec = "perm:" + ";".join([f"(0 {MAX_DEGREE - 1})"] * (MAX_GENERATORS + 1))
        code, out, err = invoke("subgroups", spec)
        assert code == 2 and out == "" and not reached
        assert err.startswith("usage error:") and str(MAX_GENERATORS) in err
        assert err.count("\n") == 1

    def test_bound_is_inclusive(self):
        spec = parse_group_spec("perm:" + ";".join(["(0 1)"] * MAX_GENERATORS))
        assert len(spec.generators) == MAX_GENERATORS


class TestLatticeBound:
    def test_too_many_subgroups_is_a_domain_error(self, invoke):
        code, out, err = invoke("subgroups", C2_7)
        assert code == 1 and out == ""
        assert err.startswith("error:") and str(MAX_SUBGROUPS) in err
        assert err.count("\n") == 1 and "Traceback" not in err



DOT_REFUSED = "usage error: dot format applies to spec, ring-spec, and fibers\n"
MEMBER_FLAGS = ("--level", "e", "--element", "1")
NO_AXIOM = "usage error: --axioms names no axiom; choose from " + ", ".join(ALL_AXIOMS) + "\n"


def prime_flags(n):
    """``--prime q`` for the first n primes from 5 up: none divides 2^a 3^b."""
    primes, q = [], 5
    while len(primes) < n:
        if all(q % d for d in range(2, int(q**0.5) + 1)):
            primes.append(q)
        q += 2
    return tuple(tok for p in primes for tok in ("--prime", str(p)))


TOO_MANY_PRIMES = (
    f"usage error: at most {MAX_EXTRA_PRIMES} distinct --prime values, got {MAX_EXTRA_PRIMES + 1}\n"
)


class TestArgsBeforeLattice:
    """Every usage error is reported after ``realize`` and before any lattice work."""

    @pytest.fixture()
    def no_lattice(self, monkeypatch):
        import btspec.cli as cli_mod

        def refuse(group):
            raise AssertionError("subgroup_lattice must not run")

        monkeypatch.setattr(cli_mod, "subgroup_lattice", refuse)

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            pytest.param(
                ("residual", C2_5, "--prime", "6"), 2,
                "usage error: --prime must be a prime number, got 6\n",
                id="residual-nonprime",
            ),
            pytest.param(
                ("--format", "dot", "residual", C2_5, "--prime", "2"), 2, DOT_REFUSED,
                id="residual-dot",
            ),
            pytest.param(
                ("--format", "dot", "residual", "A4", "--prime", "6"), 2,
                "usage error: --prime must be a prime number, got 6\n",
                id="residual-prime-before-format",
            ),
            pytest.param(
                ("--format", "dot", "residual", "Z9", "--prime", "6"), 2,
                "usage error: unrecognized group spec 'Z9' (at position 0)\n",
                id="residual-spec-parse-first",
            ),
            pytest.param(
                ("--max-order", "10", "residual", "S4", "--prime", "6"), 1,
                "error: group closure for 'S4' exceeds max_order=10\n",
                id="residual-realize-first",
            ),
            pytest.param(("--format", "dot", "verify", C2_5), 2, DOT_REFUSED, id="verify-dot"),
            pytest.param(("--format", "dot", "marks", C2_5), 2, DOT_REFUSED, id="marks-dot"),
            pytest.param(
                ("--format", "dot", "subgroups", C2_5), 2, DOT_REFUSED, id="subgroups-dot"
            ),
            pytest.param(
                ("--format", "dot", "member", C2_5, "--ideal", "e,2", *MEMBER_FLAGS), 2,
                DOT_REFUSED, id="member-dot",
            ),
            pytest.param(
                ("fibers", C2_5, "--prime", "6"), 2,
                "usage error: --prime must be 0, a prime, or GENERIC, got 6\n",
                id="fibers-nonprime",
            ),
            pytest.param(
                ("fibers", C2_5, "--prime", "x"), 2,
                "usage error: --prime must be 0, a prime, or GENERIC, got 'x'\n",
                id="fibers-not-a-number",
            ),
            pytest.param(
                ("spec", C2_5, "--prime", "4"), 2, "usage error: --prime must be prime, got 4\n",
                id="spec-nonprime",
            ),
            pytest.param(
                ("ring-spec", C2_5, "--prime", "4"), 2,
                "usage error: --prime must be prime, got 4\n",
                id="ring-spec-nonprime",
            ),
            pytest.param(
                ("spec", C2_5, *prime_flags(MAX_EXTRA_PRIMES + 1)), 2, TOO_MANY_PRIMES,
                id="spec-too-many-primes",
            ),
            pytest.param(
                ("ring-spec", C2_5, *prime_flags(MAX_EXTRA_PRIMES + 1)), 2, TOO_MANY_PRIMES,
                id="ring-spec-too-many-primes",
            ),
            pytest.param(
                ("verify", C2_5, "--axioms", "bogus"), 2,
                "usage error: unknown axioms: bogus; choose from " + ", ".join(ALL_AXIOMS) + "\n",
                id="verify-unknown-axiom",
            ),
            # A value that names no axiom is refused, not read as "none" or "all".
            *(
                pytest.param(
                    ("verify", C2_5, "--axioms", value), 2, NO_AXIOM, id=f"verify-axioms-{name}"
                )
                for name, value in (
                    ("empty", ""), ("comma", ","), ("blank", " "), ("commas", " , ,")
                )
            ),
            pytest.param(
                ("member", C2_5, "--ideal", "K4", *MEMBER_FLAGS), 2,
                "usage error: --ideal must look like H,p (class label, prime or 0)\n",
                id="member-ideal-shape",
            ),
            pytest.param(
                ("member", "A4", "--ideal", "e,", "--level", "A4", "--element", "1,0,0,0,0"), 2,
                "usage error: --ideal must look like H,p (class label, prime or 0)\n",
                id="member-ideal-empty-prime",
            ),
            pytest.param(
                ("member", "A4", "--ideal", "e,x", "--level", "A4", "--element", "1,0,0,0,0"), 2,
                "usage error: --ideal must look like H,p (class label, prime or 0)\n",
                id="member-ideal-prime-not-integer",
            ),
            pytest.param(
                ("member", C2_5, "--ideal", "e,6", *MEMBER_FLAGS), 2,
                "usage error: expected a prime or 0, got 6\n",
                id="member-ideal-prime",
            ),
            pytest.param(
                ("member", C2_5, "--ideal", "e,2", "--level", "e", "--element", "1,x"), 2,
                "usage error: --element must be comma-separated integers\n",
                id="member-element-not-integers",
            ),
            pytest.param(
                ("--format", "dot", "verify", "Z9", "--axioms", "bogus"), 2,
                "usage error: unrecognized group spec 'Z9' (at position 0)\n",
                id="verify-spec-parse-first",
            ),
            pytest.param(
                ("subgroups", ""), 2, "usage error: empty group spec (at position 0)\n",
                id="empty-spec",
            ),
            pytest.param(
                ("subgroups", "perm:"), 2,
                "usage error: perm spec has no generators (at position 5)\n",
                id="perm-no-generators",
            ),
            pytest.param(
                ("subgroups", "perm:x"), 2,
                "usage error: expected '(' but found 'x' (at position 5)\n",
                id="perm-no-cycle",
            ),
        ],
    )
    def test_refused_before_lattice(self, invoke, no_lattice, argv, code, err):
        assert invoke(*argv) == (code, "", err)


class TestExtraPrimeBound:
    """Each distinct spec/ring-spec --prime adds a fiber, and the successor
    rows grow with the square of the node count: the count is bounded."""

    def test_1000_distinct_primes_refused_quickly(self):
        # Unbounded, 1000 extra fibers on C2^4 (67 classes) would be about
        # 67,000 nodes, each with a successor row of about 67,000 bits.
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "btspec.cli", "--no-cache", "spec",
             "perm:(0 1);(2 3);(4 5);(6 7)", *prime_flags(1000)],
            capture_output=True, env=env, timeout=30,
        )
        assert proc.returncode == 2 and proc.stdout == b""
        assert proc.stderr == (
            f"usage error: at most {MAX_EXTRA_PRIMES} distinct --prime values, got 1000\n"
        ).encode()

    def test_bound_is_inclusive_and_counts_distinct_values(self, invoke):
        flags = prime_flags(MAX_EXTRA_PRIMES)
        code, out, err = invoke("spec", "perm:(0 1);(2 3);(4 5);(6 7)", *flags, *flags)
        assert code == 0 and err == ""
        assert out.count("\nfiber ") == 3 + MAX_EXTRA_PRIMES  # 0, 2, the extras, GENERIC


C2_6 = "perm:(0 1);(2 3);(4 5);(6 7);(8 9);(10 11)"


class TestLongInputErrors:
    """Errors that echo their input stay one line of bounded length."""

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(("verify", "A4", "--seed", "7" * 5000), id="verify-seed"),
            pytest.param(("spec", "x" * 20000), id="spec-text"),
            pytest.param(("spec", "A4", "--prime", "7" * 5000), id="spec-prime"),
            pytest.param(
                ("member", "A4", "--ideal", "Q" * 3000 + ",2", "--level", "A4",
                 "--element", "1,0,0,0,0"),
                id="member-ideal-label",
            ),
            # The message lists all 2825 class labels of C2^6.
            pytest.param(("marks", C2_6, "--level", "L" * 3000), id="marks-level"),
        ],
    )
    def test_message_is_cut(self, invoke, argv):
        code, out, err = invoke(*argv)
        assert code in (1, 2) and out == ""
        prefix, _, message = err.partition(": ")
        assert prefix in ("error", "usage error")
        assert message.endswith("...\n") and len(message) == MAX_MESSAGE + 1


class TestNormalizerOrders:
    """``subgroups`` prints |G| / class size; the oracle computes N_G(H) itself."""

    @pytest.mark.parametrize("text", CORPUS + ["GL3_2", "S6", C2_S6])
    def test_printed_order_is_normalizer_order(self, invoke, text):
        code, out, _ = invoke("--format", "json", "subgroups", text)
        assert code == 0
        lat = system_for(text).lattice
        printed = [row["normalizer_order"] for row in json.loads(out)["classes"]]
        assert printed == [
            normalizer_bits(lat.group, lat.subgroups[rep].members).bit_count()
            for rep in lat.class_reps
        ]


class TestClosedPipe:
    def test_reader_closing_early_gets_no_traceback(self):
        # The C2^5 spectrum text is about 130 KB, more than a pipe buffer holds.
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "btspec.cli", "--no-cache", "spec", C2_5],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline().startswith(b"spectrum of")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
        assert "Traceback" not in err and err.count("\n") <= 1


class TestLabels:
    def test_more_than_26_same_name_classes(self, invoke):
        # C2^4 has 35 classes named K4: suffixes continue a..z, aa, ab, ...
        code, out, err = invoke("subgroups", "perm:(0 1);(2 3);(4 5);(6 7)")
        assert code == 0 and err == ""
        assert "67 conjugacy classes" in out
        labels = [line.split()[0] for line in out.splitlines()[2:]]
        assert len(set(labels)) == len(labels) == 67
        k4 = [label for label in labels if label.startswith("K4")]
        assert sorted(k4) == sorted(["K4" + c for c in "abcdefghijklmnopqrstuvwxyz"]
                                    + ["K4a" + c for c in "abcdefghi"])
        assert "C2o" in labels and "C2p" not in labels


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("subgroups", "A4"),
            ("spec", "A4"),
            ("spec", "A4", "--format", "json"),
            ("spec", "Q8", "--format", "dot"),
            ("ring-spec", "D9", "--format", "json"),
            ("marks", "S4", "--format", "json"),
            ("residual", "D9", "--prime", "3"),
        ],
    )
    def test_identical_bytes(self, invoke, argv):
        first = invoke(*argv)
        second = invoke(*argv)
        assert first == second
        assert first[0] == 0


# stdout sha256 of spectrum commands and class-label listings.  CLI output is a
# byte-for-byte contract: a mismatch is a regression unless a documented defect
# fix changes the output.
GOLDEN_STDOUT = [
    ("A4", "spec", "text", "5545b932eeda4d1b8750290356d19ed974cbac53d2396514a6ce69e38303dc18"),
    ("A4", "spec", "json", "060ac2584b5596b10d3eddccef257c4117ed990a9090b8c466788d8f17972c5c"),
    ("A4", "spec", "dot", "8a20d330167ca18b7110fa4a4e686e8574dd8adc71bde47c2228dfa9a80b8d67"),
    ("A4", "ring-spec", "text", "733f624266069421e08efcb228da294c243e8c8aa8097ccfc57ae45015a45324"),
    ("A4", "ring-spec", "json", "b16e06fb1d77a6ad286745e238be3cc7ab13444d489040de6ec9277a6ec263ff"),
    ("A4", "ring-spec", "dot", "753666c0d96635bd72165b3e930b7703370af27e90ca8109152184f29c8e3cfc"),
    ("A4", "fibers --prime 2", "text", "78d4eab44624b442cb62a01afc8586ea9b37259a301f7c089721017238303a36"),
    ("A4", "fibers --prime 2", "json", "afebaa6280bd498ac49deef07af1ad347d23c60d859184453cd3b5ff7710e8d7"),
    ("A4", "fibers --prime 2", "dot", "96061268aeb533739e6d64b7d0535b815e2ef5eed1a6aa1226452fc21b2df26c"),
    ("A4", "fibers --prime GENERIC", "text", "a801f5afb456fe0788321e461158cf919e3b51601865e6b211b5f795353b96ca"),
    ("A4", "fibers --prime GENERIC", "json", "b010c7accd563e0e1a99cb9db322fdc5a5e9330ff9f2ecbe3d730f7d3884dee9"),
    ("A4", "fibers --prime GENERIC", "dot", "32da85e5b7134fcc626e97a3660c47a37ad1aea33fe083062caeb6cd746f5dce"),
    ("GL3_2", "spec", "text", "d03facacad95bca5e19e5d1984eec2af9aea8d1fd44b8210b8375172bf750a77"),
    ("GL3_2", "spec", "json", "c0892b3de2b759231b7be72386fe0d3d74716b3353c4aa6fa090b2dee1f4cb84"),
    ("GL3_2", "spec", "dot", "0ba5708daa562964217fbbd366431198932dba54c5f04f0216b252302752bbdf"),
    ("GL3_2", "ring-spec", "text", "adfa7c78fef8509cbe3e55821ee8a828b5736851904da49c1d30227e892a07f7"),
    ("GL3_2", "ring-spec", "json", "55d5c770af7c85de5531c78bdf546836c5c8c7395c79d0d890a949116b3dc502"),
    ("GL3_2", "ring-spec", "dot", "a4e89018afd9dd1ea8a91ca9884b6bd5bee95f111303c0426f400e39f72914ab"),
    ("GL3_2", "fibers --prime 2", "text", "ee152b61b6fef2f48ac68f919bdbbcab5229b3b8e18a870a32df71566b1c493a"),
    ("GL3_2", "fibers --prime 2", "json", "84ccb76c6a45f30c04498d9e5a67804b9545e828c123200953bdba8e9363f0aa"),
    ("GL3_2", "fibers --prime 2", "dot", "2cd639782425974d28cafc1fc9450c77be9f99e5d5b9852a2204d9344396daac"),
    ("GL3_2", "fibers --prime GENERIC", "text", "215069afd485f19a76457736d4f56da3ef5ef29f9d16f83a5ea865003cace93d"),
    ("GL3_2", "fibers --prime GENERIC", "json", "546604495bffad9216f1a955582aea47579bcbe9557b1969bbf9e03b20bdf1e2"),
    ("GL3_2", "fibers --prime GENERIC", "dot", "87ed5c0f15ac49b4fa64825a94b8afb38b721291b871bc17ef05c5ec540d465b"),
    ("C2_5", "spec", "text", "3f7563bac80d5dbf87a6a909a33152ef7ef4c630b5a82104b049ae5e861257c2"),
    ("C2_5", "spec", "json", "1be328e7884aa2b2a470aa4431130eea77bf21c37a76c2c26f142c0141d8edc8"),
    ("C2_5", "spec", "dot", "7b5ef7311c0bc0bb7943d68830c5c1945511fe7cb81149df15c60841b9ed65b8"),
    ("C2_5", "ring-spec", "text", "1e06e5f8bf05f29d6b2e2f846908eac0d3fde3f5c2d9bd375605febf9dd52da6"),
    ("C2_5", "ring-spec", "json", "f46004e43575f20921e412da132f47297827646f89dd0c77edd4e3a2694cd59c"),
    ("C2_5", "ring-spec", "dot", "50e298a6a2dd1ed5af7365662a15c75b219a82fbfc4ebe3f0ff045e6377f7de7"),
    ("C2_5", "fibers --prime 2", "text", "daa4dd228979ee78890897ea665ede4fe4cae2dea2b89c24fd751d2f9726c04e"),
    ("C2_5", "fibers --prime 2", "json", "1ace154e820cf301fd716c45aa6afde085e44e415a55772cb0a05b34304eb0d4"),
    ("C2_5", "fibers --prime 2", "dot", "d30c89ecbf5c7578f6fa57dfe3307a6f927b47380411500ba5b85cf05a0255b0"),
    ("C2_5", "fibers --prime GENERIC", "text", "7ab7857267808bc787eddd0b0beea9c4ec5f95d24be8527f7bcc9db78d5ea41c"),
    ("C2_5", "fibers --prime GENERIC", "json", "7da6a2e5d028de0ec783f18beed5f142a59e0a32fb6c948ec96861a29a927783"),
    ("C2_5", "fibers --prime GENERIC", "dot", "6faefa28a6e9c827a954beb3b0f58e2b1779018ceede55a2628eb6cc825d1e60"),
    ("S5", "subgroups", "text", "74f0936fdd1e044bc2d81f17f27ccbc9ce64a3ea7587eb20cb94df33f6badd12"),
    ("A6", "subgroups", "text", "a5fd348565b05b58fda0d058c6eb80daa05bcc48db84da15dc87728ebb6cd7e7"),
    ("D60", "subgroups", "text", "d3db488be33504fd385e583ea879d60de1c606b1177ec732a9aba9a78e341216"),
    ("Q24", "subgroups", "text", "78e9f8dd2d0878361b5345f9b295c39cc706040001f239e1838a179b5613dd84"),
    ("C840", "subgroups", "text", "8abff7210cc0d7252fa2ca816a4b35e4833444c261ddf9d1a16de86177200636"),
    ("S6", "subgroups", "json", "e86be7d27ea057a31003b0a0c70fe9948109b1c8f942013f33bcc38f5352831f"),
    ("C2_S6", "subgroups", "json", "229463ee9dbd55eb07af65b77cf629146c465f21a9ac7218f9985ed3d7951ad9"),
    ("S3", "verify", "text", "57f8abc15f8b110d43c862104e05a4786daebc0d59705ca9367d67164b0140e8"),
    ("S3", "verify", "json", "f2cff0e84cd0d887be55a729ff1f9fc3e51c2a2941eb8d116fe33fa8f9814043"),
    ("D4", "verify", "text", "0b99aaa7498c7b311d6beed8ab95da64a5baad69420c4efd1edb349aec196a4d"),
    ("D4", "verify", "json", "4d293fd43cc2ebdba3a44987309514379ad68fbf6ca1140381395ef1787981a1"),
    ("A4", "verify", "text", "91a0eb47931123a13053ed121bf904f5fa4b9ab1b1a822b981da9a8c8018a1e6"),
    ("A4", "verify", "json", "a14005f28665c23c92891dac4e0c97ea85c6d2387bbf5cbf8f34758136fb710d"),
    ("D6", "verify", "text", "eda874e044a23c9acf23a6b34060c85d9be7a929945af49a6b072e2792e2e4d5"),
    ("D6", "verify", "json", "2eab95927bc22404662e2cd6e42fc3134e39f2d0d9d079515f5a580fe4544fc3"),
    ("S4", "verify", "text", "4572662549d94eed079a3df256995f295fcc9f872f006809d71aad05c1712601"),
    ("S4", "verify", "json", "61c815f81b60f54c71008b90e5b466ed63e6732c63163775754f18ec6104fc86"),
    ("Q8", "verify", "text", "d5989e36ae76371997b7e26ce309dc606109f02d22a8fcb243ee0afa8beee295"),
    ("Q8", "verify", "json", "6b8dea222104c70e19054fd7435ec750c52aad40e0570816824b633d047eb4f8"),
    ("D9", "verify", "text", "0561018725d6177fd6db3d5c0131a0ee1500b7d26f332013b78e1604bc03c672"),
    ("D9", "verify", "json", "078b15008251a9910760d1cf10f2ed5783992adc9a14cb299f1650de54b5c6e7"),
    ("GL3_2", "verify", "text", "ccfe9070d497852820aadd242774676c0d1bb3c37920985d283ade390728d205"),
    ("GL3_2", "verify", "json", "2c05fdc820933e5e76d8780c41af78b8f099be1b8e760142c20ff27ae25a5083"),
    ("C2_3", "verify", "text", "4a4a799ff70d9a6e8807d7390239f8eb52867729cfbb7de4174e40e2ac8e10db"),
    ("C2_3", "verify", "json", "2aec515d85f89f88ff469c31c767930943f5175fbabfba1672e2a273c1e9b3a0"),
]


class TestGoldenStdout:
    @pytest.mark.parametrize(
        "group,command,fmt,digest",
        GOLDEN_STDOUT,
        ids=[f"{g} {c} {f}" for g, c, f, _ in GOLDEN_STDOUT],
    )
    def test_stdout_sha256(self, invoke, group, command, fmt, digest):
        spec = {"C2_3": C2_3, "C2_5": C2_5, "C2_S6": C2_S6, "C840": C840}.get(group, group)
        cmd, *rest = command.split()
        code, out, err = invoke("--format", fmt, cmd, spec, *rest)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSpecCommand:
    def test_a4_json_fiber_sizes(self, invoke):
        code, out, _ = invoke("spec", "A4", "--format", "json")
        assert code == 0
        data = json.loads(out)
        sizes = {k: len(v) for k, v in data["fibers"].items()}
        assert sizes == {"0": 5, "2": 3, "3": 3, "GENERIC": 5}
        assert data["krull_dimension"] == 4
        labels = {n["label"] for n in data["nodes"]}
        assert "p_{A4,2}" in labels and "p_{K4,3}" in labels and "p_{e,q}" in labels

    def test_q8_single_point_fiber(self, invoke):
        code, out, _ = invoke("spec", "Q8", "--format", "json")
        data = json.loads(out)
        assert len(data["fibers"]["2"]) == 1
        assert len(data["fibers"]["GENERIC"]) == 6

    def test_extra_prime_flag(self, invoke):
        code, out, _ = invoke("spec", "A4", "--prime", "7", "--format", "json")
        data = json.loads(out)
        assert len(data["fibers"]["7"]) == 5

    def test_edges_reference_nodes(self, invoke):
        _, out, _ = invoke("spec", "D9", "--format", "json")
        data = json.loads(out)
        ids = {n["id"] for n in data["nodes"]}
        for a, b in data["edges"]:
            assert a in ids and b in ids

    def test_ring_spec_node_bijection(self, invoke):
        _, out1, _ = invoke("spec", "S4", "--format", "json")
        _, out2, _ = invoke("ring-spec", "S4", "--format", "json")
        tam, ring = json.loads(out1), json.loads(out2)
        key = lambda n: (n["p"], n["residual_class_label"])
        assert sorted(map(key, tam["nodes"])) == sorted(map(key, ring["nodes"]))
        assert ring["krull_dimension"] == 1

    def test_dot_output_shape(self, invoke):
        _, out, _ = invoke("spec", "A4", "--format", "dot")
        assert out.count("digraph") == 5  # one per fiber + combined
        assert "rankdir=BT" in out
        assert 'label="p_{A4,0}"' in out

    def test_fibers_command(self, invoke):
        code, out, _ = invoke("fibers", "A4", "--prime", "2")
        assert code == 0
        assert "p_{A4,2}" in out and "p_{C3,2}" in out and "p_{e,2}" in out
        code, out, _ = invoke("fibers", "A4", "--prime", "GENERIC")
        assert code == 0 and "p_{K4,q}" in out

    # 2 and 3 divide |A4|; 5 does not, so only the --prime flag adds its fiber.
    @pytest.mark.parametrize("prime", ["0", "GENERIC", "2", "5"])
    def test_fibers_is_a_section_of_spec(self, invoke, prime):
        code, out, err = invoke("fibers", "A4", "--prime", prime)
        assert (code, err) == (0, "")
        assert out.startswith(f"fiber {prime} (")
        assert out in invoke("spec", "A4", "--prime", "5")[1]

    def test_fibers_materializes_any_prime(self, invoke):
        code, out, _ = invoke("fibers", "Q8", "--prime", "13", "--format", "json")
        data = json.loads(out)
        assert len(data["fibers"]["13"]) == 6


class TestMarksCommand:
    def test_s3_table(self, invoke):
        code, out, _ = invoke("marks", "S3", "--format", "json")
        data = json.loads(out)
        assert data["level_label"] == "S3"
        assert data["class_labels"] == ["e", "C2", "C3", "S3"]
        assert data["matrix"] == [
            [6, 0, 0, 0],
            [3, 1, 0, 0],
            [2, 0, 2, 0],
            [1, 1, 1, 1],
        ]

    def test_sublevel(self, invoke):
        code, out, _ = invoke("marks", "A4", "--level", "K4", "--format", "json")
        data = json.loads(out)
        assert data["level_label"] == "K4"
        # K4 <= A4 has five K4-classes of subgroups: e, three C2's, K4.
        assert data["class_labels"] == ["e", "C2", "C2#2", "C2#3", "K4"]

    def test_text_rows_are_not_copied(self):
        # C2^5's top level has 374 classes: a copy of its table of marks as
        # lists takes about 1.2 MB, and printing it row by row about 50 KB.
        import contextlib
        import tracemalloc

        session = Session(system_for(C2_5), labels_for(C2_5))
        args = build_parser().parse_args(["marks", C2_5])
        session.system.level(session.lattice.top_index).marks_matrix
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert cmd_marks(session, args) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 400_000


class TestResidualCommand:
    def test_gl32_column(self, invoke):
        code, out, _ = invoke("residual", "GL3_2", "--prime", "3", "--format", "json")
        data = json.loads(out)
        rows = dict(map(tuple, data["rows"]))
        assert rows["C7:C3"] == "C7"
        assert rows["A4a"] == "K4a"
        assert rows["A4b"] == "K4b"
        assert rows["C3"] == "e"
        assert len(data["rows"]) == 15


class TestVerifyCommand:
    def test_s3_passes(self, invoke):
        code, out, _ = invoke("verify", "S3")
        assert code == 0
        assert "all axioms verified:" in out

    def test_axiom_filter(self, invoke):
        code, out, _ = invoke("verify", "C4", "--axioms", "frobenius")
        assert code == 0 and "frobenius" in out

    def test_unknown_axiom_is_usage_error(self, invoke):
        code, _, err = invoke("verify", "C4", "--axioms", "nonsense")
        assert code == 2


class TestMemberCommand:
    def test_member_yes(self, invoke):
        code, out, _ = invoke(
            "member", "A4", "--ideal", "K4,2", "--level", "A4", "--element", "0,0,1,0,0"
        )
        assert code == 0 and "is MEMBER" in out

    def test_member_no(self, invoke):
        code, out, _ = invoke(
            "member", "A4", "--ideal", "K4,2", "--level", "A4", "--element", "0,0,0,1,0"
        )
        assert code == 0 and "NOT a member" in out

    def test_member_json(self, invoke):
        code, out, _ = invoke(
            "member", "A4", "--ideal", "A4,0", "--level", "C3",
            "--element", "0,0", "--format", "json",
        )
        data = json.loads(out)
        assert data["member"] is True

    def test_bad_ideal_syntax(self, invoke):
        code, _, _ = invoke("member", "A4", "--ideal", "K4", "--level", "A4", "--element", "0")
        assert code == 2

    def test_wrong_element_length(self, invoke):
        code, _, err = invoke(
            "member", "A4", "--ideal", "K4,2", "--level", "A4", "--element", "1,2"
        )
        assert code == 2 and "coefficients" in err


def _edit_row(raw, cls, update):
    """Rewrite the stored hex subconjugacy row of one class."""
    raw["below"][cls] = f"{update(int(raw['below'][cls], 16)):x}"


def _merge_classes(raw, a, b):
    """Store class b (> a) as part of class a: renumber ``class_of`` and OR
    the subconjugacy rows, renumbered the same way."""
    rows = [int(h, 16) for h in raw["below"]]
    new = [a if c == b else c - (c > b) for c in range(len(rows))]
    rows[a] |= rows.pop(b)
    raw["class_of"] = [new[c] for c in raw["class_of"]]
    raw["below"] = [
        f"{sum(1 << n for n in {new[c] for c in range(len(new)) if row >> c & 1}):x}"
        for row in rows
    ]


def _drop_class(raw, c):
    """Remove class c and its subgroups from a stored entry: renumber the later
    classes and drop bit c from the subconjugacy rows."""
    keep = [i for i, k in enumerate(raw["class_of"]) if k != c]
    raw["subgroups"] = [raw["subgroups"][i] for i in keep]
    raw["class_of"] = [k - (k > c) for k in (raw["class_of"][i] for i in keep)]
    rows = [int(h, 16) for i, h in enumerate(raw["below"]) if i != c]
    raw["below"] = [f"{row & (1 << c) - 1 | row >> c + 1 << c:x}" for row in rows]


# Cache files written when groups kept one permutation object per element:
# sha256 of the A4 and GL3_2 entries, and the A4 entry itself.
PINNED_ENTRY_SHA256 = {
    "A4": "21c9f173ba3a1adeef19c2c1eb3f30058851deafdbd9d5f2f4662ee0ecf26b08",
    "GL3_2": "e05653af0ec51c71880c4f0b1102aa6bc679a06794db63605a24dd8ad0d2fbfa",
}
A4_ENTRY = (
    '{"below": ["1", "3", "5", "b", "1f"], "class_of": [0, 1, 1, 1, 2, 2, 2, 2, 3, 4], "degree": 4, "format_version": 2, "generators": [[0, 2, 3, 1], [1, 2, 0, 3]], '
    '"order": 12, "spec": "A4", "spec_hash": "bceb29f1be2be4db25bb125e83f34f216e58ca952f561bdf7c821188f932f4da", "subgroups": ["1", "11", "21", "801", "b", "45", "301", "481", "831", "fff"]}'
)


class TestCache:
    @pytest.mark.parametrize("text", sorted(PINNED_ENTRY_SHA256))
    def test_entry_bytes_pinned(self, invoke, tmp_path, text):
        assert invoke("subgroups", text, cache=True)[0] == 0
        [path] = (tmp_path / "cache").iterdir()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_ENTRY_SHA256[text]

    def test_pinned_entry_loads_with_a_hit(self, invoke, tmp_path, monkeypatch):
        import btspec.cli as cli_mod

        assert hashlib.sha256(A4_ENTRY.encode()).hexdigest() == PINNED_ENTRY_SHA256["A4"]
        path = cache_path(tmp_path / "cache", spec_cache_key("A4", DEFAULT_MAX_ORDER))
        path.parent.mkdir()
        path.write_text(A4_ENTRY)
        expected = invoke("spec", "A4")
        monkeypatch.setattr(cli_mod, "subgroup_lattice", lambda group: pytest.fail("cache miss"))
        assert invoke("spec", "A4", cache=True) == expected

    def test_roundtrip(self, tmp_path):
        group = group_from_text("GL3_2")
        lattice = subgroup_lattice(group)
        key = spec_cache_key(group.name, 2000)
        path = cache_path(tmp_path, key)
        cache_store(path, group, lattice, key)
        loaded = cache_load(path, group, key)
        assert loaded is not None
        assert [s.members for s in loaded.subgroups] == [s.members for s in lattice.subgroups]
        assert loaded.class_of == lattice.class_of
        assert loaded.below == lattice.below

    def test_missing_file(self, tmp_path):
        group = group_from_text("S3")
        key = spec_cache_key(group.name, 2000)
        assert cache_load(cache_path(tmp_path, key), group, key) is None

    def test_truncated_json_recomputes_with_warning(self, tmp_path, capsys):
        group = group_from_text("S3")
        lattice = subgroup_lattice(group)
        key = spec_cache_key(group.name, 2000)
        path = cache_path(tmp_path, key)
        cache_store(path, group, lattice, key)
        path.write_text(path.read_text()[: 40])
        assert cache_load(path, group, key) is None
        assert "cache" in capsys.readouterr().err

    def test_tampered_payload_rejected(self, tmp_path):
        group = group_from_text("S3")
        lattice = subgroup_lattice(group)
        key = spec_cache_key(group.name, 2000)
        path = cache_path(tmp_path, key)
        cache_store(path, group, lattice, key)
        raw = json.loads(path.read_text())
        raw["subgroups"] = raw["subgroups"][:-1]
        path.write_text(json.dumps(raw))
        assert cache_load(path, group, key) is None

    def test_wrong_group_rejected(self, tmp_path):
        s3 = group_from_text("S3")
        c6 = group_from_text("C6")
        key = spec_cache_key(s3.name, 2000)
        path = cache_path(tmp_path, key)
        cache_store(path, s3, subgroup_lattice(s3), key)
        assert cache_load(path, c6, key) is None

    def test_other_generators_are_a_silent_miss(self, tmp_path, capsys):
        # The same order and degree as S3, but other generators.
        s3, other = group_from_text("S3"), group_from_text("perm:(0 1 2);(1 2)")
        assert (other.order, other.degree) == (s3.order, s3.degree)
        assert other.generators != s3.generators
        key = spec_cache_key(s3.name, DEFAULT_MAX_ORDER)
        path = cache_path(tmp_path, key)
        cache_store(path, s3, subgroup_lattice(s3), key)
        assert cache_load(path, other, key) is None
        assert capsys.readouterr().err == ""

    def test_default_dir_is_under_xdg_cache_home(self, tmp_path, monkeypatch):
        monkeypatch.delenv("BTSPEC_CACHE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert cache_mod.default_cache_dir() == tmp_path / "btspec"

    def test_stored_non_subgroup_recomputes_with_warning(self, tmp_path, capsys):
        # {1, 2} has the right order but no identity and is not closed.
        group = group_from_text("S3")
        key = spec_cache_key(group.name, DEFAULT_MAX_ORDER)
        path = cache_path(tmp_path, key)
        cache_store(path, group, subgroup_lattice(group), key)
        raw = json.loads(path.read_text())
        raw["subgroups"] = ["6" if h == "3" else h for h in raw["subgroups"]]
        path.write_text(json.dumps(raw))
        code = run(["--cache-dir", str(tmp_path), "spec", "S3"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == f"btspec: ignoring corrupt cache entry {path}\n"
        assert run(["--no-cache", "spec", "S3"]) == 0
        assert captured.out == capsys.readouterr().out

    # S3 is stored as subgroups ["1", "3", "9", "11", "25", "3f"], class_of
    # [0, 1, 1, 1, 2, 3] and below ["1", "3", "5", "f"].
    @pytest.mark.parametrize(
        "edit",
        [
            lambda raw: raw["subgroups"].__setitem__(1, "6"),  # {1, 2}: no identity
            lambda raw: raw["subgroups"].__setitem__(1, "5"),  # {0, 2}: 2 has order 3
            lambda raw: raw["subgroups"].__setitem__(4, "27"),  # order 4 does not divide 6
            lambda raw: _edit_row(raw, 1, lambda row: row & ~0b10),  # C2 not below itself
            lambda raw: _edit_row(raw, 1, lambda row: row | 0b100),  # C3 below C2
            # Malformed past the header: a duplicate, a short list, or misnumbered.
            lambda raw: raw.update(subgroups=["1", "3", "3", "11", "25", "3f"]),
            lambda raw: raw.update(class_of=[0, 1, 1, 1, 2]),
            lambda raw: raw.update(
                subgroups=["1", "3", "9", "11", "25"], class_of=[0, 1, 1, 1, 2],
                below=["1", "3", "5"],
            ),
            lambda raw: raw.update(below=["1", "3", "5"]),
            lambda raw: raw.update(class_of=[0, 2, 2, 2, 1, 3]),
        ],
        ids=["no-identity", "not-closed", "order", "subconj-not-reflexive", "subconj-order",
             "duplicate-subgroup", "class-of-short", "group-not-last", "below-short",
             "classes-out-of-order"],
    )
    def test_inconsistent_entry_rejected(self, tmp_path, capsys, edit):
        group = group_from_text("S3")
        key = spec_cache_key(group.name, DEFAULT_MAX_ORDER)
        path = cache_path(tmp_path, key)
        cache_store(path, group, subgroup_lattice(group), key)
        raw = json.loads(path.read_text())
        edit(raw)
        path.write_text(json.dumps(raw))
        assert cache_load(path, group, key) is None
        assert capsys.readouterr().err == f"btspec: ignoring corrupt cache entry {path}\n"

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe{", b"[" * 100_000], ids=["not-utf8", "deep-nesting"]
    )
    def test_unreadable_bytes_recompute_with_note(self, tmp_path, capsys, content):
        path = cache_path(tmp_path, spec_cache_key("S3", DEFAULT_MAX_ORDER))
        path.write_bytes(content)
        code = run(["--cache-dir", str(tmp_path), "subgroups", "S3"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == f"btspec: ignoring unreadable cache entry {path}\n"
        assert run(["--no-cache", "subgroups", "S3"]) == 0
        assert captured.out == capsys.readouterr().out

    @pytest.mark.parametrize(
        "edit",
        [
            lambda raw: raw.update(subgroups=["1", "3", "3", "11", "25", "3f"]),
            lambda raw: raw.update(class_of=[0, 1, 1, -1, 2, 3], below=["1", "3", "5", "b"]),
            lambda raw: raw.update(class_of=[0, 2, 2, 2, 1, 3]),
            # C3 joins the class of the C2s, which then holds two orders.
            lambda raw: raw.update(class_of=[0, 1, 1, 1, 1, 2], below=["1", "3", "7"]),
        ],
        ids=["duplicate-subgroup", "negative-class", "classes-out-of-order", "mixed-order-class"],
    )
    @pytest.mark.parametrize(
        "command",
        [["subgroups"], ["spec"], ["marks"], ["verify"], ["residual", "--prime", "2"]],
        ids=lambda argv: argv[0],
    )
    def test_misnumbered_entry_matches_no_cache(self, tmp_path, capsys, edit, command):
        group = group_from_text("S3")
        key = spec_cache_key(group.name, DEFAULT_MAX_ORDER)
        path = cache_path(tmp_path, key)
        cache_store(path, group, subgroup_lattice(group), key)
        raw = json.loads(path.read_text())
        edit(raw)
        path.write_text(json.dumps(raw))
        code = run(["--cache-dir", str(tmp_path), command[0], "S3", *command[1:]])
        captured = capsys.readouterr()
        assert code == 0 and captured.err.count("\n") <= 1
        assert run(["--no-cache", command[0], "S3", *command[1:]]) == 0
        assert captured.out == capsys.readouterr().out

    @pytest.mark.parametrize("command", ["subgroups", "spec", "marks", "verify"])
    def test_merged_classes_match_no_cache(self, tmp_path, capsys, command):
        # S4's transpositions and double transpositions generate two classes of
        # C2; stored as one class they pass every per-subgroup check.
        group = group_from_text("S4")
        key = spec_cache_key(group.name, DEFAULT_MAX_ORDER)
        path = cache_path(tmp_path, key)
        lattice = subgroup_lattice(group)
        cache_store(path, group, lattice, key)
        raw = json.loads(path.read_text())
        a, b = [c for c, r in enumerate(lattice.class_reps) if lattice.subgroups[r].order == 2]
        _merge_classes(raw, a, b)
        path.write_text(json.dumps(raw))
        code = run(["--cache-dir", str(tmp_path), command, "S4"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == f"btspec: ignoring corrupt cache entry {path}\n"
        assert run(["--no-cache", command, "S4"]) == 0
        assert captured.out == capsys.readouterr().out

    def test_merged_abelian_classes_rejected(self, tmp_path, capsys):
        # Every subgroup of C2^3 is a class of its own, and no generator
        # conjugates anything: two C2s stored as one class are still refused.
        group = group_from_text(C2_3)
        key = spec_cache_key(group.name, DEFAULT_MAX_ORDER)
        path = cache_path(tmp_path, key)
        lattice = subgroup_lattice(group)
        cache_store(path, group, lattice, key)
        raw = json.loads(path.read_text())
        a, b = [c for c, r in enumerate(lattice.class_reps) if lattice.subgroups[r].order == 2][:2]
        _merge_classes(raw, a, b)
        path.write_text(json.dumps(raw))
        assert cache_load(path, group, key) is None
        assert capsys.readouterr().err == f"btspec: ignoring corrupt cache entry {path}\n"

    # An entry that lists only each class's least member: the orbits walked
    # outgrow the entry after `stop` of its classes, and the walk ends there.
    @pytest.mark.parametrize(
        "text, stop, classes", [("S4", 4, 11), ("S5", 3, 19), (C2_S6, 11, 194)]
    )
    def test_representatives_only_entry_stops_early(self, tmp_path, capsys, monkeypatch,
                                                    text, stop, classes):
        lattice = system_for(text).lattice
        group = lattice.group
        key = spec_cache_key(group.name, DEFAULT_MAX_ORDER)
        path = cache_path(tmp_path, key)
        cache_store(path, group, lattice, key)
        raw = json.loads(path.read_text())
        raw["subgroups"] = [raw["subgroups"][r] for r in lattice.class_reps]
        raw["class_of"] = list(range(lattice.num_classes))
        path.write_text(json.dumps(raw))
        walked = []
        monkeypatch.setattr(
            cache_mod, "conjugates", lambda g, bits: walked.append(bits) or conjugates(g, bits)
        )
        assert cache_load(path, group, key) is None
        assert capsys.readouterr().err == f"btspec: ignoring corrupt cache entry {path}\n"
        sizes = [lattice.class_size(c) for c in range(lattice.num_classes)]
        assert lattice.num_classes == classes
        assert sum(sizes[:stop - 1]) <= classes < sum(sizes[:stop])
        assert walked == [lattice.subgroups[r].members for r in lattice.class_reps[:stop]]

    # Each entry misses one whole class and passes every per-class check.
    @pytest.mark.parametrize(
        "text, order, kind",
        [
            ("S4", 1, None),
            # D6's C6 holds two elements of order 6, which no other subgroup has.
            ("D6", 6, "cyclic"),
            # Without S4's normal K4, S4 has 6 subgroups of order 4, an even number.
            ("S4", 4, "normal"),
            # S4's four C3s are all its subgroups of order 3, and cyclic.
            ("S4", 3, None),
        ],
        ids=["identity-first", "cyclic-count", "prime-power-count", "S4-without-C3"],
    )
    def test_missing_class_recomputes_with_note(self, tmp_path, capsys, text, order, kind):
        group = group_from_text(text)
        key = spec_cache_key(group.name, DEFAULT_MAX_ORDER)
        path = cache_path(tmp_path, key)
        lattice = subgroup_lattice(group)
        cache_store(path, group, lattice, key)
        raw = json.loads(path.read_text())
        (c,) = [
            c for c, r in enumerate(lattice.class_reps)
            if lattice.subgroups[r].order == order
            and (kind != "cyclic" or lattice.subgroups[r].members & group.order_masks[order])
            and (kind != "normal" or lattice.class_size(c) == 1)
        ]
        _drop_class(raw, c)
        path.write_text(json.dumps(raw))
        code = run(["--cache-dir", str(tmp_path), "subgroups", text])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == f"btspec: ignoring corrupt cache entry {path}\n"
        assert run(["--no-cache", "subgroups", text]) == 0
        assert captured.out == capsys.readouterr().out

    def test_oversized_entry_recomputed(self, tmp_path, capsys, monkeypatch):
        # C2^4 has 67 subgroups: with the bound at 50 its stored entry is
        # refused before its bitsets are read (an unreadable one would draw a
        # note), and the recomputation stops at the bound.
        text = "perm:(0 1);(2 3);(4 5);(6 7)"
        group = group_from_text(text)
        key = spec_cache_key(group.name, DEFAULT_MAX_ORDER)
        path = cache_path(tmp_path, key)
        cache_store(path, group, subgroup_lattice(group), key)
        raw = json.loads(path.read_text())
        raw["subgroups"][1] = "not hex"
        path.write_text(json.dumps(raw))
        monkeypatch.setattr(lattice_mod, "MAX_SUBGROUPS", 50)
        assert cache_load(path, group, key) is None
        assert capsys.readouterr().err == ""
        code = run(["--cache-dir", str(tmp_path), "subgroups", text])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        message = f"{group.name} has more than 50 subgroups (lattice.MAX_SUBGROUPS)"
        assert captured.err == f"error: {message}\n"

    def test_format_1_entry_replaced_silently(self, tmp_path, capsys):
        group = group_from_text("S3")
        key = spec_cache_key(group.name, DEFAULT_MAX_ORDER)
        path = cache_path(tmp_path, key)
        lattice = subgroup_lattice(group)
        cache_store(path, group, lattice, key)
        raw = json.loads(path.read_text())
        raw["format_version"] = 1
        del raw["below"]
        raw["subconj"] = [
            [r >> c & 1 for r in lattice.below] for c in range(lattice.num_classes)
        ]
        path.write_text(json.dumps(raw))
        assert run(["--cache-dir", str(tmp_path), "subgroups", "S3"]) == 0
        assert capsys.readouterr().err == ""
        rewritten = json.loads(path.read_text())
        assert rewritten["format_version"] == 2
        assert [int(h, 16) for h in rewritten["below"]] == lattice.below

    def test_cli_uses_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        code = run(["--cache-dir", str(cache_dir), "subgroups", "A4"])
        out1 = capsys.readouterr().out
        assert code == 0
        assert list(cache_dir.glob("lattice-*.json"))
        code = run(["--cache-dir", str(cache_dir), "subgroups", "A4"])
        out2 = capsys.readouterr().out
        assert code == 0 and out1 == out2

    def test_cache_dir_that_is_a_file(self, tmp_path, capsys):
        # Reading under a regular file is a miss, not a corrupt entry; only
        # the failed write is reported.
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        assert run(["--cache-dir", str(blocker), "subgroups", "A4"]) == 0
        captured = capsys.readouterr()
        assert "5 conjugacy classes" in captured.out
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("btspec: cache write failed:")

    def test_cli_survives_corrupt_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        run(["--cache-dir", str(cache_dir), "subgroups", "A4"])
        capsys.readouterr()
        for f in cache_dir.glob("lattice-*.json"):
            f.write_text("{broken")
        code = run(["--cache-dir", str(cache_dir), "subgroups", "A4"])
        captured = capsys.readouterr()
        assert code == 0
        assert "4" in captured.out  # still correct output
        assert "cache" in captured.err

    def test_env_var_sets_cache_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BTSPEC_CACHE", str(tmp_path / "envcache"))
        code = run(["subgroups", "S3"])
        capsys.readouterr()
        assert code == 0
        assert list((tmp_path / "envcache").glob("lattice-*.json"))

    def test_marks_documents_element_order(self, capsys):
        code = run(["--no-cache", "marks", "A4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "member --element" in out and "e,C2,C3,K4,A4" in out


class TestStartup:
    def test_cli_import_skips_heavy_modules(self):
        """Every CLI call imports btspec.cli in a fresh interpreter; it must
        not pay for dataclasses, which pulls in inspect, ast, dis and tokenize,
        nor for typing, nor for the cache's OpenSSL hashing (``_hashlib``) and
        ``tempfile``, which only a cache read or write needs.  ``-S`` keeps
        site hooks from importing them first."""
        heavy = (
            "dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "_hashlib", "tempfile"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        code = f"import sys, btspec.cli; print([m for m in {heavy!r} if m in sys.modules])"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, env=env, timeout=60
        )
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, b"", b"[]\n")


class TestReadme:
    def test_global_options_paragraph_names_every_global_flag(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        start = readme.index("\nGlobal options:")
        paragraph = readme[start:readme.index("\n\n", start)]
        documented = set(re.findall(r"--[a-z][a-z-]*", paragraph))
        defined = {
            flag
            for action in build_parser()._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        assert documented == defined

    def test_package_exports_resolve(self):
        import btspec

        missing = [name for name in btspec.__all__ if not hasattr(btspec, name)]
        assert missing == []

    def test_library_paragraph_names_existing_methods(self):
        from btspec import GhostSystem, LevelRing

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        start = readme.index("\nStructure maps live on")
        paragraph = " ".join(readme[start:readme.index("\n\n", start)].split())
        on_system = re.findall(r"`(\w+)`", re.search(r"`GhostSystem` \(([^)]*)\)", paragraph)[1])
        on_ring = re.findall(r"`(\w+)`", re.search(r"level rings expose ([^.]*)\.", paragraph)[1])
        assert set(on_system) >= {"ghost_res", "ghost_tr", "ghost_nm", "ghost_conj", "burnside_nm"}
        assert set(on_ring) >= {"marks", "unmark", "multiply"}
        assert all(callable(getattr(GhostSystem, name, None)) for name in on_system)
        assert all(callable(getattr(LevelRing, name, None)) for name in on_ring)

    def test_oracles_live_only_in_tests(self):
        import btspec
        from btspec import burnside, ghost, groups, gsets, lattice, spectrum

        for name in ("product", "disjoint_union", "orbit_decompose", "fixed_point_identity_check"):
            assert not hasattr(gsets, name), name
        assert not hasattr(gsets.GSet, "check")
        for name in ("all_families", "family_closed"):
            assert not hasattr(spectrum, name), name
        # Wrappers only tests called; the tests call what they wrapped.
        for module, names in (
            (lattice, ("double_cosets", "double_coset_reps", "p_residual", "is_subconjugate")),
            # Cosets are numbered by left_cosets/right_cosets, not bare transversals.
            (lattice, ("left_transversal", "right_transversal")),
            # Enumeration skips joins without normalizers; the oracle computes them.
            (lattice, ("normalizer_bits",)),
            (spectrum, ("make_family", "PrimeIdeal", "make_prime_ideal", "ideal_contains")),
            # res/conj routes are their index tuples; no compiled callables or copies.
            (ghost, ("_projection", "_Forms", "_Images", "itemgetter")),
            # verify_axioms takes its seed and axioms; the report counts itself.
            (ghost, ("VerifyConfig", "_Recorder")),
            # Groups keep their generators' image tuples, not one object per element.
            (groups, ("Permutation",)),
        ):
            for name in names:
                assert not hasattr(module, name) and name not in btspec.__all__, name
        for cls, names in (
            (lattice.Subgroup, ("element_indices",)),
            (lattice.SubgroupLattice, ("is_subconjugate",)),
            (burnside.BurnsideElement, ("scale", "is_zero", "__sub__", "__neg__")),
            (burnside.GhostElement, ("scale", "is_zero", "__sub__", "__neg__")),
            (burnside.LevelRing, ("zero",)),
            (ghost.GhostSystem, ("_tr_terms", "_nm_factors")),
            (ghost.VerificationReport, ("add",)),
        ):
            for name in names:
                assert name not in vars(cls), f"{cls.__name__}.{name}"
        assert not hasattr(groups.group_from_text("S3"), "elements")

    def test_every_export_is_used_outside_tests(self):
        import btspec

        root = Path(__file__).resolve().parents[1]
        paths = [p for p in (root / "src" / "btspec").glob("*.py") if p.name != "__init__.py"]
        paths += [*(root / "scripts").glob("*.py"), root / "README.md"]
        lines = [line for p in paths for line in p.read_text().splitlines()]
        unused = [
            name
            for name in btspec.__all__
            if name != "__version__"
            and not any(
                re.search(rf"\b{name}\b", line) and not re.match(rf"\s*(def|class) {name}\b", line)
                for line in lines
            )
        ]
        assert unused == []
