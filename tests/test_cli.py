"""CLI surface: commands, formats, exit codes, determinism, lattice cache."""

import json

import pytest

from btspec.cache import cache_load, cache_path, cache_store, spec_cache_key
from btspec.cli import run
from btspec.groups import group_from_text
from btspec.lattice import subgroup_lattice


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
