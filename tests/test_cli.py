"""CLI surface: commands, formats, exit codes, determinism, lattice cache."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from btspec.cache import cache_load, cache_path, cache_store, spec_cache_key
from btspec.cli import run
from btspec.errors import SpecRangeError
from btspec.groups import DEFAULT_MAX_ORDER, MAX_DEGREE, group_from_text, parse_group_spec
from btspec.lattice import subgroup_lattice

from conftest import C2_5, C840


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

    def test_bound_is_inclusive(self):
        for letter in "DQS":
            parse_group_spec(f"{letter}{MAX_DEGREE}")
        parse_group_spec(f"C{2 ** 12}")
        with pytest.raises(SpecRangeError):
            parse_group_spec(f"A{MAX_DEGREE + 1}")


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
]


class TestGoldenStdout:
    @pytest.mark.parametrize(
        "group,command,fmt,digest",
        GOLDEN_STDOUT,
        ids=[f"{g} {c} {f}" for g, c, f, _ in GOLDEN_STDOUT],
    )
    def test_stdout_sha256(self, invoke, group, command, fmt, digest):
        spec = {"C2_5": C2_5, "C840": C840}.get(group, group)
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


class TestCache:
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
        assert loaded.subconj == lattice.subconj

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

    @pytest.mark.parametrize(
        "edit",
        [
            lambda raw: raw["subgroups"].__setitem__(1, "6"),  # {1, 2}: no identity
            lambda raw: raw["subgroups"].__setitem__(1, "5"),  # {0, 2}: 2 has order 3
            lambda raw: raw["subgroups"].__setitem__(4, "27"),  # order 4 does not divide 6
            lambda raw: raw["subconj"][1].__setitem__(1, 0),  # not reflexive
            lambda raw: raw["subconj"][2].__setitem__(1, 1),  # C3 below C2
        ],
        ids=["no-identity", "not-closed", "order", "subconj-not-reflexive", "subconj-order"],
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

    def test_cli_uses_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        code = run(["--cache-dir", str(cache_dir), "subgroups", "A4"])
        out1 = capsys.readouterr().out
        assert code == 0
        assert list(cache_dir.glob("lattice-*.json"))
        code = run(["--cache-dir", str(cache_dir), "subgroups", "A4"])
        out2 = capsys.readouterr().out
        assert code == 0 and out1 == out2

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
