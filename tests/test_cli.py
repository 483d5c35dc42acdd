"""Command-line interface: exit codes, output formats, atomic writes."""

import csv
import io
import json
import os

import numpy as np
import pytest

from detectability import Label
from detectability.cli import main

from _synth import unigram_docs, write_jsonl


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# detectability version=")
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    return lines[0], rows


def dist_file(tmp_path, name, probs):
    path = tmp_path / name
    path.write_text(json.dumps(probs))
    return str(path)


@pytest.fixture
def bern_pair(tmp_path):
    return (
        dist_file(tmp_path, "m.json", [0.4, 0.6]),
        dist_file(tmp_path, "h.json", [0.5, 0.5]),
    )


@pytest.fixture
def corpus_files(tmp_path):
    rng = np.random.default_rng(40)
    base = rng.dirichlet(np.full(10, 2.0))
    shift = rng.dirichlet(np.full(10, 2.0))
    pm = 0.55 * base + 0.45 * shift
    h = unigram_docs(rng, base, Label.HUMAN, 40, 30, "h")
    m = unigram_docs(rng, pm, Label.MACHINE, 40, 30, "m")
    hp, mp = tmp_path / "human.jsonl", tmp_path / "machine.jsonl"
    write_jsonl(hp, h)
    write_jsonl(mp, m)
    return str(hp), str(mp)


class TestTvCommand:
    def test_csv_output(self, capsys, bern_pair):
        code, out, _ = run(capsys, "tv", *bern_pair)
        assert code == 0
        header, rows = parse_csv(out)
        assert "config=" in header
        assert len(rows) == 1
        assert float(rows[0]["tv"]) == pytest.approx(0.1, abs=1e-12)
        assert float(rows[0]["auroc_upper"]) == pytest.approx(0.595, abs=1e-12)

    def test_json_output_with_infinity(self, capsys, tmp_path):
        mp = dist_file(tmp_path, "m.json", [1, 0])
        hp = dist_file(tmp_path, "h.json", [0, 1])
        code, out, _ = run(capsys, "tv", mp, hp, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["tool"] == "detectability"
        assert payload["rows"][0]["tv"] == 1.0
        assert payload["rows"][0]["chernoff_information"] == "inf"

    def test_bad_distribution_is_usage_error(self, capsys, tmp_path):
        mp = dist_file(tmp_path, "m.json", [0.4, 0.9])
        hp = dist_file(tmp_path, "h.json", [0.5, 0.5])
        code, _, err = run(capsys, "tv", mp, hp)
        assert code == 2
        assert err

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        hp = dist_file(tmp_path, "h.json", [0.5, 0.5])
        code, _, err = run(capsys, "tv", str(tmp_path / "nope.json"), hp)
        assert code == 2

    def test_malformed_json_names_byte_offset(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[0.4, ")
        hp = dist_file(tmp_path, "h.json", [0.5, 0.5])
        code, _, err = run(capsys, "tv", str(bad), hp)
        assert code == 2
        assert "byte offset" in err

    def test_mismatched_supports_exit_one(self, capsys, tmp_path):
        mp = dist_file(tmp_path, "m.json", [0.4, 0.6])
        hp = dist_file(tmp_path, "h.json", [0.2, 0.3, 0.5])
        code, _, err = run(capsys, "tv", mp, hp)
        assert code == 1
        assert err


class TestBoundsCommand:
    def test_iid_row(self, capsys):
        code, out, _ = run(capsys, "bounds", "--delta", "0.1", "--epsilon", "0.9")
        assert code == 0
        _, rows = parse_csv(out)
        iid = [r for r in rows if r["kind"] == "iid"]
        assert len(iid) == 1
        assert int(iid[0]["n"]) == 300
        assert float(iid[0]["alpha"]) == 0.0

    def test_dependence_row(self, capsys, tmp_path):
        dep = tmp_path / "dep.json"
        dep.write_text(json.dumps({"blocks": [[10, 0.5]]}))
        code, out, _ = run(
            capsys,
            "bounds", "--delta", "0.1", "--epsilon", "0.9",
            "--dependence", str(dep),
        )
        assert code == 0
        _, rows = parse_csv(out)
        dep_rows = [r for r in rows if r["kind"] == "noniid"]
        assert len(dep_rows) == 1
        assert int(dep_rows[0]["n"]) == 605
        assert float(dep_rows[0]["alpha"]) == pytest.approx(4.5)

    def test_domain_error_exit_one(self, capsys):
        code, _, err = run(capsys, "bounds", "--delta", "0", "--epsilon", "0.9")
        assert code == 1
        assert err

    def test_missing_dependence_file_exit_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "bounds", "--delta", "0.1", "--epsilon", "0.9",
            "--dependence", str(tmp_path / "nope.json"),
        )
        assert code == 2

    def test_malformed_dependence_json_names_offset(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"blocks": [[10, ')
        code, _, err = run(
            capsys,
            "bounds", "--delta", "0.1", "--epsilon", "0.9",
            "--dependence", str(bad),
        )
        assert code == 2
        assert "byte offset" in err

    def test_bad_blocks_shape_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"blocks": [[10, 0.5, 3]]}')
        code, _, err = run(
            capsys,
            "bounds", "--delta", "0.1", "--epsilon", "0.9",
            "--dependence", str(bad),
        )
        assert code == 2


class TestCurveCommand:
    def test_grid_and_sections(self, capsys):
        code, out, _ = run(capsys, "curve", "--delta", "0.1", "--n-list", "1,2,4")
        assert code == 0
        _, rows = parse_csv(out)
        bound = [r for r in rows if r["kind"] == "bound"]
        roc = [r for r in rows if r["kind"] == "roc"]
        assert [int(r["n"]) for r in bound] == [1, 2, 4]
        # one 101-point ceiling trace per requested n
        assert len(roc) == 3 * 101
        for n in (1, 2, 4):
            pts = [r for r in roc if int(r["n"]) == n]
            assert len(pts) == 101
            assert float(pts[0]["fpr"]) == 0.0
            assert float(pts[-1]["tpr"]) == 1.0
        # n = 1 keeps the raw separation
        assert float(bound[0]["tv_lower"]) == pytest.approx(0.1)

    def test_error_on_descending_n_list(self, capsys):
        code, _, err = run(capsys, "curve", "--delta", "0.1", "--n-list", "4,2")
        assert code in (1, 2)
        assert err

    def test_error_on_unparseable_n_list(self, capsys):
        code, _, err = run(capsys, "curve", "--delta", "0.1", "--n-list", "1,x")
        assert code == 2
        assert err


class TestSimulateCommand:
    def write_config(self, tmp_path, **overrides):
        cfg = {
            "m": [0.4, 0.6],
            "h": [0.5, 0.5],
            "n_values": [1, 4],
            "trials_per_class": 100,
            "seed": 3,
        }
        cfg.update(overrides)
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_runs_and_reports_columns(self, capsys, tmp_path):
        code, out, _ = run(capsys, "simulate", self.write_config(tmp_path))
        assert code == 0
        _, rows = parse_csv(out)
        assert [int(r["n"]) for r in rows] == [1, 4]
        for r in rows:
            assert 0.0 <= float(r["empirical_auroc"]) <= 1.0
            assert r["auroc_upper_exact"] != ""
            assert float(r["wall_time_seconds"]) >= 0.0

    def test_seed_flag_overrides_config(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        _, out_a, _ = run(capsys, "simulate", cfg, "--seed", "11")
        _, out_b, _ = run(capsys, "simulate", cfg, "--seed", "12")
        _, out_c, _ = run(capsys, "simulate", cfg, "--seed", "11")

        def strip_time(text):
            _, rows = parse_csv(text)
            return [
                {k: v for k, v in row.items() if k != "wall_time_seconds"}
                for row in rows
            ]

        assert strip_time(out_a) != strip_time(out_b)
        assert strip_time(out_a) == strip_time(out_c)

    def test_missing_config_key_exit_two(self, capsys, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"m": [0.5, 0.5]}))
        code, _, err = run(capsys, "simulate", str(path))
        assert code == 2
        assert "n_values" in err or "h" in err

    def test_invalid_distribution_in_config_exit_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", self.write_config(tmp_path, m=[0.4, 0.7])
        )
        assert code == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_values", [1.7]),
            ("trials_per_class", 20.9),
            ("seed", "x"),
        ],
    )
    def test_non_integer_field_exit_two(self, capsys, tmp_path, field, value):
        code, out, err = run(
            capsys, "simulate", self.write_config(tmp_path, **{field: value})
        )
        assert code == 2
        assert out == ""
        assert field in err

    def test_fractional_block_size_exit_two(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, dependence={"blocks": [[2.9, 0.5]]})
        code, out, err = run(capsys, "simulate", cfg)
        assert code == 2
        assert out == ""
        assert "blocks" in err and "2.9" in err

    def test_dependence_block_in_config(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, dependence={"blocks": [[2, 0.5]]})
        code, out, _ = run(capsys, "simulate", cfg)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2


class TestCorpusCommand:
    def test_tv_by_order(self, capsys, corpus_files):
        hp, mp = corpus_files
        code, out, _ = run(
            capsys,
            "corpus", "tv-by-order", "--human", hp, "--machine", mp,
            "--orders", "1,2",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [int(r["order"]) for r in rows] == [1, 2]
        for r in rows:
            assert 0.0 <= float(r["tv"]) <= 1.0
            assert 0.0 <= float(r["support_overlap"]) <= 1.0

    def test_identical_files_give_zero_tv(self, capsys, corpus_files):
        hp, _ = corpus_files
        code, out, _ = run(
            capsys,
            "corpus", "tv-by-order", "--human", hp, "--machine", hp,
            "--orders", "1",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["tv"]) == 0.0

    def test_train_ablate(self, capsys, corpus_files):
        hp, mp = corpus_files
        code, out, _ = run(
            capsys,
            "corpus", "train-ablate", "--human", hp, "--machine", mp,
            "--lengths", "5,30", "--seed", "1",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [int(r["length"]) for r in rows] == [5, 30]
        for r in rows:
            assert 0.0 <= float(r["test_auroc"]) <= 1.0

    def test_pairwise(self, capsys, corpus_files):
        hp, mp = corpus_files
        code, out, _ = run(
            capsys,
            "corpus", "pairwise", "--human", hp, "--machine", mp,
            "--k-values", "1,2", "--seed", "1",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [int(r["k"]) for r in rows] == [1, 2]

    def test_strict_parse_error_names_line(self, capsys, corpus_files, tmp_path):
        _, mp = corpus_files
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a", "text": "x", "label": "human"}\n{oops\n')
        code, _, err = run(
            capsys,
            "corpus", "tv-by-order", "--human", str(bad), "--machine", mp,
            "--orders", "1",
        )
        assert code == 2
        assert "line 2" in err

    def test_lenient_skips_with_note(self, capsys, corpus_files, tmp_path):
        hp, mp = corpus_files
        mixed = tmp_path / "mixed.jsonl"
        good = open(hp, encoding="utf-8").read()
        mixed.write_text(good + "{oops\n")
        code, out, err = run(
            capsys,
            "corpus", "tv-by-order", "--human", str(mixed), "--machine", mp,
            "--orders", "1", "--lenient",
        )
        assert code == 0
        assert "skipped 1" in err

    def test_empty_corpus_exit_two(self, capsys, corpus_files, tmp_path):
        _, mp = corpus_files
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, _, err = run(
            capsys,
            "corpus", "tv-by-order", "--human", str(empty), "--machine", mp,
            "--orders", "1",
        )
        assert code == 2


class TestIntListFlags:
    @pytest.mark.parametrize("value", ["1,,4", "1,4,", " ,3"])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["curve", "--delta", "0.1"], "--n-list"),
            (["corpus", "tv-by-order"], "--orders"),
            (["corpus", "train-ablate"], "--lengths"),
            (["corpus", "pairwise"], "--k-values"),
        ],
    )
    def test_empty_element_exit_two(self, capsys, corpus_files, argv, flag, value):
        if argv[0] == "corpus":
            hp, mp = corpus_files
            argv = argv + ["--human", hp, "--machine", mp]
        code, out, err = run(capsys, *argv, flag, value)
        assert code == 2
        assert flag in err and "empty" in err
        assert out == ""


class TestOutputHandling:
    def test_out_writes_atomically(self, capsys, tmp_path, bern_pair):
        target = tmp_path / "result.csv"
        code, out, _ = run(capsys, "tv", *bern_pair, "--out", str(target))
        assert code == 0
        assert out == ""  # nothing on stdout when writing a file
        text = target.read_text()
        _, rows = parse_csv(text)
        assert float(rows[0]["tv"]) == pytest.approx(0.1, abs=1e-12)
        leftovers = [
            p
            for p in os.listdir(tmp_path)
            if p not in ("result.csv", "m.json", "h.json")
        ]
        assert leftovers == []

    def test_out_unwritable_directory_exit_two(self, capsys, bern_pair, tmp_path):
        code, _, err = run(
            capsys,
            "tv", *bern_pair, "--out", str(tmp_path / "missing" / "result.csv"),
        )
        assert code == 2

    def test_json_format_is_valid_and_carries_config(self, capsys, bern_pair):
        code, out, _ = run(capsys, "tv", *bern_pair, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == sorted(payload)
        assert payload["version"]
        assert payload["config"]["format"] == "json"
        assert payload["config"]["command"] == "tv"

    def test_version_flag(self, capsys):
        code = main(["--version"])
        out = capsys.readouterr().out
        assert code == 0
        assert "detectability" in out

    def test_no_arguments_is_usage_error(self, capsys):
        code = main([])
        assert code == 2

    def test_unknown_subcommand_exit_two(self, capsys):
        code = main(["frobnicate"])
        assert code == 2
