"""Command line interfaces, driven through click's test runner."""

import json
import subprocess
from pathlib import Path

import pytest
from click.testing import CliRunner

from derange.cli import derange, lincover, subdirect
from oracles import derange_process


@pytest.fixture
def runner():
    return CliRunner()


def write_group(path: Path, degree, gens, name=None) -> str:
    doc = {"degree": degree, "generators": gens}
    if name:
        doc["name"] = name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def s3_file(tmp_path):
    return write_group(tmp_path / "s3.json", 3, [[1, 0, 2], [1, 2, 0]], name="S3")


@pytest.fixture
def s4_file(tmp_path):
    return write_group(tmp_path / "s4.json", 4, [[1, 0, 2, 3], [1, 2, 3, 0]], name="S4")


@pytest.fixture
def c4_file(tmp_path):
    return write_group(tmp_path / "c4.json", 4, [[1, 2, 3, 0]], name="C4")


class TestVerify:
    def test_json_to_stdout(self, runner):
        result = runner.invoke(derange, ["verify", "--degree", "4", "--json", "-"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["verdict"] == "verified"
        assert doc["degree"] == "4"
        assert doc["counterexamples"] == []

    def test_human_report_default(self, runner):
        result = runner.invoke(derange, ["verify", "--degree", "4"])
        assert result.exit_code == 0
        assert "degree 4: verdict verified" in result.output
        assert "wall time" in result.output

    def test_json_file_written(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(derange, ["verify", "--degree", "4", "--json", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["verdict"] == "verified"
        assert "degree 4: verdict verified" in result.output
        assert "json report written" in result.stderr

    def test_repeat_runs_byte_identical(self, runner):
        args = ["verify", "--degree", "4", "--seed", "42", "--json", "-"]
        a = runner.invoke(derange, args)
        b = runner.invoke(derange, args)
        assert a.exit_code == b.exit_code == 0
        assert a.output == b.output

    def test_seed_flag_recorded(self, runner):
        result = runner.invoke(derange, ["verify", "--degree", "2", "--seed", "5", "--json", "-"])
        assert json.loads(result.output)["seed"] == "5"

    def test_max_order_gives_partial_exit(self, runner):
        result = runner.invoke(
            derange, ["verify", "--degree", "4", "--max-order", "5", "--json", "-"]
        )
        assert result.exit_code == 3
        doc = json.loads(result.output)
        assert doc["verdict"] == "partial"
        assert doc["caps_hit"]

    def test_fixture_corpus_roundtrip(self, runner, tmp_path):
        out = tmp_path / "deg4"
        result = runner.invoke(derange, ["enumerate", "--degree", "4", "--out", str(out)])
        assert result.exit_code == 0
        assert "5 transitive groups of degree 4" in result.output
        assert len(sorted(out.glob("*.json"))) == 5
        result = runner.invoke(
            derange, ["verify", "--degree", "4", "--corpus", str(out), "--json", "-"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["verdict"] == "verified"
        assert doc["source"].startswith("fixtures:")
        assert doc["corpus_size"] == "5"

    def test_corpus_degree_mismatch(self, runner, tmp_path):
        out = tmp_path / "deg4"
        runner.invoke(derange, ["enumerate", "--degree", "4", "--out", str(out)])
        result = runner.invoke(derange, ["verify", "--degree", "5", "--corpus", str(out)])
        assert result.exit_code == 2
        assert "error:" in result.stderr


class TestSingleGroupCommands:
    def test_pndr(self, runner, s3_file):
        result = runner.invoke(derange, ["pndr", "--group", s3_file])
        assert result.exit_code == 0
        assert json.loads(result.output) == {
            "group": "S3",
            "pndr": {"num": "4", "den": "6"},
        }

    def test_pndr_name_defaults_to_stem(self, runner, tmp_path):
        path = write_group(tmp_path / "mygroup.json", 3, [[1, 2, 0]])
        result = runner.invoke(derange, ["pndr", "--group", path])
        assert json.loads(result.output)["group"] == "mygroup"

    def test_derangement_found(self, runner, s3_file):
        result = runner.invoke(derange, ["derangement", "--group", s3_file])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        images = doc["derangement"]
        assert sorted(images) == [0, 1, 2]
        assert all(images[i] != i for i in range(3))
        assert doc["method"] in {"random", "enumeration"}

    def test_derangement_verified_absent(self, runner, tmp_path):
        # S3 embedded in degree 4 fixes the last point, so nothing deranges
        path = write_group(tmp_path / "s3fix.json", 4, [[1, 0, 2, 3], [1, 2, 0, 3]])
        result = runner.invoke(derange, ["derangement", "--group", path])
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert doc["derangement"] is None
        assert doc["method"] == "enumeration"

    def test_invalid_json_is_input_error(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        result = runner.invoke(derange, ["pndr", "--group", str(path)])
        assert result.exit_code == 2
        assert "broken.json" in result.stderr

    def test_bad_generator_is_input_error(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"degree": 3, "generators": [[0, 0, 2]]}))
        result = runner.invoke(derange, ["pndr", "--group", str(path)])
        assert result.exit_code == 2
        assert "generator" in result.stderr

    @pytest.mark.parametrize(
        "doc, msg",
        [
            ('{"degree": true, "generators": []}', "degree must be an integer"),
            ('{"degree": 2, "generators": [[true, false]]}', "generator 0 is not a bijection"),
        ],
    )
    def test_json_booleans_are_input_errors(self, runner, tmp_path, doc, msg):
        path = tmp_path / "bools.json"
        path.write_text(doc)
        result = runner.invoke(derange, ["pndr", "--group", str(path)])
        assert result.exit_code == 2
        assert msg in result.stderr

    def test_missing_file_is_input_error(self, runner, tmp_path):
        result = runner.invoke(derange, ["pndr", "--group", str(tmp_path / "no.json")])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "n,label",
        [
            (4, "equal-primes"),
            (8, "prime-power"),
            (6, "direct-verification"),
            (15, "q-not-dividing-p-minus-1"),
            (55, "q-at-most-half-p-minus-1"),
            (30, "not-covered"),
        ],
    )
    def test_classify(self, runner, n, label):
        result = runner.invoke(derange, ["classify", "--n", str(n)])
        assert result.exit_code == 0
        assert json.loads(result.output) == {"n": str(n), "case": label}

    def test_classify_rejects_small_n(self, runner):
        result = runner.invoke(derange, ["classify", "--n", "1"])
        assert result.exit_code == 2


class TestLincover:
    def test_formula(self, runner):
        result = runner.invoke(lincover, ["formula", "--q", "3", "--d", "3", "--k", "2"])
        assert result.exit_code == 0
        assert json.loads(result.output)["count"] == "4"

    def test_formula_rejects_bad_field(self, runner):
        result = runner.invoke(lincover, ["formula", "--q", "6", "--d", "3", "--k", "2"])
        assert result.exit_code == 2
        assert "prime power" in result.stderr

    def test_search(self, runner):
        result = runner.invoke(lincover, ["search", "--q", "2", "--d", "2"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["size"] == "3"
        assert doc["hyperplanes"] == [[0, 1], [1, 0], [1, 1]]

    def test_tight(self, runner):
        result = runner.invoke(lincover, ["tight", "--q", "3", "--d", "3"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["size"] == "5"
        assert doc["covers_all"] is True
        assert doc["trivial_intersection"] is True
        assert len(doc["hyperplanes"]) == 5

    def test_tight_past_the_space_cap(self, runner):
        # q^d = 2^24 is over the enumeration cap; the check scans one vector
        result = runner.invoke(lincover, ["tight", "--q", "2", "--d", "24"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["size"] == "25"
        assert doc["covers_all"] is True and doc["trivial_intersection"] is True

    def test_search_past_the_space_cap_is_partial(self, runner):
        result = runner.invoke(lincover, ["search", "--q", "2", "--d", "24"])
        assert result.exit_code == 3
        assert "exceeds enumeration cap" in result.stderr


class TestSubdirect:
    def test_list_is_default(self, runner, c4_file):
        result = runner.invoke(subdirect, ["--g1", c4_file, "--g2", c4_file])
        assert result.exit_code == 0
        records = json.loads(result.output)
        assert sorted(r["subgroup_order"] for r in records) == ["16", "4", "4", "8"]
        assert all("derangement" not in r for r in records)

    def test_check_derangements_all_found(self, runner, c4_file):
        result = runner.invoke(
            subdirect, ["--g1", c4_file, "--g2", c4_file, "--check-derangements"]
        )
        assert result.exit_code == 0
        records = json.loads(result.output)
        assert len(records) == 4
        for r in records:
            images = r["derangement"]
            n = len(images)
            assert all(images[i] != i for i in range(n))

    def test_no_dedup_keeps_conjugates(self, runner, s3_file):
        base = ["--g1", s3_file, "--g2", s3_file]
        deduped = json.loads(runner.invoke(subdirect, base).output)
        raw = json.loads(runner.invoke(subdirect, base + ["--no-dedup"]).output)
        assert len(deduped) == 3
        assert len(raw) == 8

    def test_covered_case_exits_one(self, runner, s4_file, s3_file):
        result = runner.invoke(
            subdirect, ["--g1", s4_file, "--g2", s3_file, "--check-derangements"]
        )
        assert result.exit_code == 1
        records = json.loads(result.output)
        covered = [r for r in records if r["derangement"] is None]
        assert len(covered) == 1
        assert covered[0]["quotient_order"] == "6"
        assert covered[0]["subgroup_order"] == "24"


class TestConsoleScripts:
    @pytest.mark.parametrize("name", ["derange", "lincover", "subdirect"])
    def test_installed_and_answer_help(self, name):
        proc = subprocess.run([name, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "Usage:" in proc.stdout

    def test_verify_byte_identical_across_processes(self, tmp_path):
        # two separate processes must agree bytewise; this runs the
        # script's target in a fresh interpreter on the checkout's src/,
        # the launcher itself is covered by test_installed_and_answer_help
        out = []
        for i in range(2):
            path = tmp_path / f"r{i}.json"
            cmd, env = derange_process("verify", "--degree", "4", "--seed",
                                       "42", "--json", str(path))
            proc = subprocess.run(cmd, capture_output=True, env=env,
                                  timeout=300)
            assert proc.returncode == 0, proc.stderr.decode()
            out.append(path.read_bytes())
        assert out[0] == out[1]
