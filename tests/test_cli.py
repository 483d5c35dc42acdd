"""Command-line interface: exit codes, output formats, atomic writes."""

import contextlib
import csv
import dataclasses
import importlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detectability import Label
from detectability.cli import _TRAINING_FLAGS, _render, build_parser, main

from _synth import unigram_docs, write_jsonl

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, **kwargs):
    """``python -m detectability`` in a subprocess, killed after 60 s."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "detectability", *argv],
        env=env, capture_output=True, text=True, timeout=60, **kwargs,
    )


def cap_address_space():
    """Run in a child before exec: a runaway allocation fails at 512 MiB."""
    resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))


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

    def test_chernoff_cell_is_pinned(self, capsys, bern_pair):
        # the float chernoff_information returns for this pair, as printed:
        # the float64 value stepped down by its a-priori rounding margin
        _, out, _ = run(capsys, "tv", *bern_pair)
        assert parse_csv(out)[1][0]["chernoff_information"] == "0.005076770485340851"

    def test_json_output_with_infinity(self, capsys, tmp_path):
        mp = dist_file(tmp_path, "m.json", [1, 0])
        hp = dist_file(tmp_path, "h.json", [0, 1])
        code, out, _ = run(capsys, "tv", mp, hp, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["tool"] == "detectability"
        assert payload["rows"][0]["tv"] == 1.0
        assert payload["rows"][0]["chernoff_information"] == "inf"

    def test_csv_output_with_infinity(self, capsys, tmp_path):
        mp = dist_file(tmp_path, "m.json", [0.5, 0.5, 0])
        hp = dist_file(tmp_path, "h.json", [0, 0, 1])
        code, out, _ = run(capsys, "tv", mp, hp)
        assert code == 0
        assert out.splitlines()[2] == "1.0,inf,1.0"

    def test_bad_distribution_is_usage_error(self, capsys, tmp_path):
        mp = dist_file(tmp_path, "m.json", [0.4, 0.9])
        hp = dist_file(tmp_path, "h.json", [0.5, 0.5])
        code, _, err = run(capsys, "tv", mp, hp)
        assert code == 2
        assert err

    def test_object_file_is_usage_error(self, capsys, tmp_path):
        mp = dist_file(tmp_path, "m.json", {"probs": [0.4, 0.6]})
        hp = dist_file(tmp_path, "h.json", [0.5, 0.5])
        code, out, err = run(capsys, "tv", mp, hp)
        assert (code, out) == (2, "")
        want = 'probs must be a list of numbers, got {"probs": [0.4, 0.6]}'
        assert err == f"detectability: error: {mp}: {want}\n"

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

    def test_mismatched_supports_exit_two(self, capsys, tmp_path):
        # malformed input: the fault lies in the two files together
        mp = dist_file(tmp_path, "m.json", [0.4, 0.6])
        hp = dist_file(tmp_path, "h.json", [0.2, 0.3, 0.5])
        code, out, err = run(capsys, "tv", mp, hp)
        assert (code, out) == (2, "")
        assert err == f"detectability: error: {mp}, {hp}: support sizes differ: 2 vs 3\n"

    def test_string_probabilities_exit_two(self, capsys, tmp_path):
        mp = dist_file(tmp_path, "m.json", ["0.4", "0.6"])
        hp = dist_file(tmp_path, "h.json", [0.5, 0.5])
        code, out, err = run(capsys, "tv", mp, hp)
        assert code == 2
        assert out == ""
        assert f'{mp}: element 1 of 2 must be a number, got "0.4"' in err

    def test_boolean_probabilities_exit_two(self, capsys, tmp_path):
        mp = dist_file(tmp_path, "m.json", [0.5, 0.5])
        hp = dist_file(tmp_path, "h.json", [True, False])
        code, out, err = run(capsys, "tv", mp, hp)
        assert code == 2
        assert out == ""
        assert f"{hp}: element 1 of 2 must be a number, got true" in err


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

    @pytest.mark.parametrize("delta", ["1e-200", "1e-160"])
    @pytest.mark.parametrize("dependence", [False, True])
    def test_sample_size_past_the_float_range_exit_one(
        self, capsys, tmp_path, delta, dependence
    ):
        dep = tmp_path / "dep.json"
        dep.write_text(json.dumps({"blocks": [[10, 0.5]]}))
        extra = ["--dependence", str(dep)] if dependence else []
        code, out, err = run(capsys, "bounds", "--delta", delta, "--epsilon", "0.9", *extra)
        assert code == 1
        assert out == ""
        # the iid row comes first, so its sample size is the one reported
        assert err == (
            f"detectability: error: the sample size at delta = {float(delta)!r} "
            "is past the float range\n"
        )

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

    def test_dependence_not_an_object_exit_two(self, capsys, tmp_path):
        bad = dist_file(tmp_path, "dep.json", [[10, 0.5]])
        code, out, err = run(
            capsys,
            "bounds", "--delta", "0.1", "--epsilon", "0.9",
            "--dependence", bad,
        )
        assert (code, out) == (2, "")
        assert err == (
            f"detectability: error: {bad}: dependence must be an object with field 'blocks'\n"
        )

    @pytest.mark.parametrize(
        "rho, shown", [("0.5", '"0.5"'), (True, "true")], ids=["string", "bool"]
    )
    def test_non_number_rho_exit_two(self, capsys, tmp_path, rho, shown):
        bad = tmp_path / "dep.json"
        bad.write_text(json.dumps({"blocks": [[10, 0.5], [2, rho]]}))
        code, out, err = run(
            capsys,
            "bounds", "--delta", "0.1", "--epsilon", "0.9",
            "--dependence", str(bad),
        )
        assert code == 2
        assert out == ""
        assert (
            f"{bad}: field 'blocks': block 2 of 2: rho must be a number, got {shown}"
        ) in err


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

    def test_n_past_the_float_range_saturates(self, capsys):
        huge = 10**399
        code, out, _ = run(capsys, "curve", "--delta", "0.1", "--n-list", f"1,{huge}")
        assert code == 0
        _, rows = parse_csv(out)
        (last,) = [r for r in rows if r["kind"] == "bound" and int(r["n"]) == huge]
        assert float(last["tv_lower"]) == 1.0
        assert float(last["auroc_upper"]) == 1.0

    def test_error_on_descending_n_list(self, capsys):
        code, _, err = run(capsys, "curve", "--delta", "0.1", "--n-list", "4,2")
        assert code == 2
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

    def test_equal_masses_print_a_chance_chernoff_ceiling(self, capsys, tmp_path):
        pair = [4 / 7, 3 / 7]
        code, out, _ = run(capsys, "simulate", self.write_config(tmp_path, m=pair, h=pair))
        assert code == 0
        _, rows = parse_csv(out)
        assert [(r["n"], r["auroc_upper_chernoff"]) for r in rows] == [("1", "0.5"), ("4", "0.5")]

    def test_seed_flag_overrides_config(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        _, out_a, _ = run(capsys, "simulate", cfg, "--seed", "11")
        _, out_b, _ = run(capsys, "simulate", cfg, "--seed", "12")
        _, out_c, _ = run(capsys, "simulate", cfg, "--seed", "11")
        assert parse_csv(out_a)[1] != parse_csv(out_b)[1]
        assert out_a == out_c

    @pytest.mark.parametrize("name", ["seedless.json", "missing.json"])
    def test_negative_seed_flag_names_the_flag(self, capsys, tmp_path, name):
        # the override is checked before the file is read, so neither a config
        # that holds no seed nor one that does not exist is blamed for it
        config = {"m": [0.4, 0.6], "h": [0.5, 0.5], "n_values": [1], "trials_per_class": 10}
        dist_file(tmp_path, "seedless.json", config)
        code, out, err = run(capsys, "simulate", str(tmp_path / name), "--seed", "-4")
        assert (code, out) == (2, "")
        assert err == "detectability: error: --seed must be an integer >= 0, got -4\n"

    def test_missing_config_key_exit_two(self, capsys, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"m": [0.5, 0.5]}))
        code, _, err = run(capsys, "simulate", str(path))
        assert code == 2
        assert "n_values" in err or "h" in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("h", None, "missing field 'h'"),
            ("trials_per_class", None, "missing field 'trials_per_class'"),
            ("m", 5, "field 'm': probs must be a list of numbers, got 5"),
            ("h", {"a": 1}, 'field \'h\': probs must be a list of numbers, got {"a": 1}'),
            ("n_values", "12", 'n_values must be a list of integers, got "12"'),
            ("dependence", {}, "field 'dependence': missing field 'blocks'"),
        ],
    )
    def test_field_left_out_or_not_a_list_is_named(self, capsys, tmp_path, field, value, message):
        cfg = json.loads(Path(self.write_config(tmp_path)).read_text())
        cfg.pop(field, None)
        if value is not None:
            cfg[field] = value
        path = dist_file(tmp_path, "sim.json", cfg)
        code, out, err = run(capsys, "simulate", path)
        assert (code, out) == (2, "")
        assert err == f"detectability: error: {path}: {message}\n"

    def test_config_not_an_object_exit_two(self, capsys, tmp_path):
        path = dist_file(tmp_path, "sim.json", [{"m": [0.4, 0.6]}])
        code, out, err = run(capsys, "simulate", path)
        assert (code, out) == (2, "")
        assert err == f"detectability: error: {path}: expected a JSON object\n"

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

    @pytest.mark.parametrize(
        "field, value, shown",
        [
            ("n_values", [True], "true"),
            ("trials_per_class", "5", '"5"'),
            ("trials_per_class", None, "null"),
            # numpy's samplers take at most 2**63 - 1 trials
            ("trials_per_class", 10**30, str(10**30)),
        ],
        ids=["bool", "string", "null", "past-int64"],
    )
    def test_rejected_integer_is_shown_as_json(self, capsys, tmp_path, field, value, shown):
        cfg = self.write_config(tmp_path, **{field: value})
        code, out, err = run(capsys, "simulate", cfg)
        assert code == 2
        assert out == ""
        want = f"{field} must be an integer in 1..{2**63 - 1}, got {shown}"
        assert err == f"detectability: error: {cfg}: {want}\n"

    def test_support_sizes_differ_exit_two(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, h=[0.2, 0.3, 0.5])
        code, out, err = run(capsys, "simulate", cfg)
        assert code == 2
        assert out == ""
        assert err == f"detectability: error: {cfg}: support sizes differ: 2 vs 3\n"

    def test_fractional_block_size_exit_two(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, dependence={"blocks": [[2.9, 0.5]]})
        code, out, err = run(capsys, "simulate", cfg)
        assert code == 2
        assert out == ""
        assert "blocks" in err and "2.9" in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (
                "m",
                ["0.4", "0.6"],
                "field 'm': element 1 of 2 must be a number, got \"0.4\"",
            ),
            ("h", [0.5, True], "field 'h': element 2 of 2 must be a number, got true"),
            (
                "dependence",
                {"blocks": [[2, "0.5"]]},
                "field 'dependence': field 'blocks': "
                "block 1 of 1: rho must be a number, got \"0.5\"",
            ),
            (
                "dependence",
                {"blocks": [[2, True]]},
                "field 'dependence': field 'blocks': "
                "block 1 of 1: rho must be a number, got true",
            ),
            ("n_values", 4, "n_values must be a list of integers, got 4"),
        ],
        ids=["m-string", "h-bool", "rho-string", "rho-bool", "n_values-number"],
    )
    def test_non_number_element_exit_two(self, capsys, tmp_path, field, value, message):
        cfg = self.write_config(tmp_path, **{field: value})
        code, out, err = run(capsys, "simulate", cfg)
        assert code == 2
        assert out == ""
        assert f"{cfg}: {message}" in err

    def test_huge_dependent_n_runs(self, tmp_path):
        # the law sampler counts the blocks of each kind, so the largest n
        # runs; listing one block per 10 samples would never finish, and the
        # timeout and the address-space cap make a regression fail instead
        # of hang or fill the machine's memory
        cfg = self.write_config(
            tmp_path, n_values=[2**63 - 1], dependence={"blocks": [[10, 0.5]]}
        )
        proc = run_module("simulate", cfg, preexec_fn=cap_address_space)
        assert proc.returncode == 0, proc.stderr
        _, rows = parse_csv(proc.stdout)
        assert [int(r["n"]) for r in rows] == [2**63 - 1]
        assert 0.0 <= float(rows[0]["empirical_auroc"]) <= 1.0

    def test_copy_path_too_big_for_memory_exits_one(self, tmp_path):
        # blocks of 500 over 10 letters take the copy process, whose 2**40
        # positions per trial no memory holds
        cfg = self.write_config(
            tmp_path,
            m=[0.1] * 10,
            h=[0.05] * 5 + [0.15] * 5,
            n_values=[2**40],
            dependence={"blocks": [[500, 0.5]]},
        )
        proc = run_module("simulate", cfg, preexec_fn=cap_address_space)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("detectability: error: Unable to allocate ")
        assert proc.stderr.count("\n") == 1

    def test_unallocatable_trial_count_exits_one(self, capsys, tmp_path):
        # 10**12 float64 scores need 7.28 TiB, which numpy refuses to allocate
        # before touching any memory
        cfg = self.write_config(tmp_path, trials_per_class=10**12)
        code, out, err = run(capsys, "simulate", cfg)
        assert code == 1
        assert out == ""
        assert err.startswith("detectability: error: Unable to allocate 7.28 TiB")
        assert err.count("\n") == 1

    def test_dependence_block_in_config(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, dependence={"blocks": [[2, 0.5]]})
        code, out, _ = run(capsys, "simulate", cfg)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2


SIMULATE_KEYS = "m, h, n_values, trials_per_class, dependence, seed"
SIMULATE_BODY = '"m": [0.4, 0.6], "h": [0.5, 0.5], "n_values": [1, 4], "trials_per_class": 10'


class TestJsonKeys:
    """Every key of a JSON object the CLI reads is declared, and appears once.

    A misspelt optional key used to be dropped without a word, and a repeated
    key silently kept its last value; either changed what the run meant.
    """

    def run_file(self, capsys, tmp_path, command, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = {
            "simulate": ["simulate", str(path)],
            "bounds": ["bounds", "--delta", "0.1", "--epsilon", "0.9", "--dependence", str(path)],
        }[command]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        return err.removeprefix(f"detectability: error: {path}: ")

    @pytest.mark.parametrize(
        "extra, key",
        [
            ('"dependance": {"blocks": [[10, 1.0]]}', "dependance"),
            ('"Seed": 7', "Seed"),
            ('"seed": 7, "note": null', "note"),
        ],
    )
    def test_unknown_simulate_key_exits_two(self, capsys, tmp_path, extra, key):
        err = self.run_file(capsys, tmp_path, "simulate", f"{{{SIMULATE_BODY}, {extra}}}")
        assert err == f'unknown key "{key}"; allowed keys: {SIMULATE_KEYS}\n'

    def test_unknown_key_is_named_before_a_missing_one(self, capsys, tmp_path):
        text = '{"m": [0.4, 0.6], "h": [0.5, 0.5], "N_values": [1], "trials_per_class": 10}'
        err = self.run_file(capsys, tmp_path, "simulate", text)
        assert err == f'unknown key "N_values"; allowed keys: {SIMULATE_KEYS}\n'

    @pytest.mark.parametrize(
        "dependence", ['{"blocks": [[10, 0.5]], "blokcs": 1}', '{"blokcs": [[10, 0.5]]}']
    )
    def test_unknown_dependence_key_exits_two(self, capsys, tmp_path, dependence):
        err = self.run_file(capsys, tmp_path, "bounds", dependence)
        assert err == 'unknown key "blokcs"; allowed keys: blocks\n'
        err = self.run_file(
            capsys, tmp_path, "simulate", f'{{{SIMULATE_BODY}, "dependence": {dependence}}}'
        )
        assert err == "field 'dependence': unknown key \"blokcs\"; allowed keys: blocks\n"

    @pytest.mark.parametrize(
        "command, text, key",
        [
            (
                "simulate",
                f'{{{SIMULATE_BODY}, "dependence": {{"blocks": [[2, 0.5]]}}, "dependence": null}}',
                "dependence",
            ),
            ("simulate", f'{{{SIMULATE_BODY}, "seed": 1, "seed": 2}}', "seed"),
            (
                "simulate",
                f'{{{SIMULATE_BODY}, "dependence": {{"blocks": [[2, 0.5]], "blocks": []}}}}',
                "blocks",
            ),
            ("bounds", '{"blocks": [[10, 0.5]], "blocks": [[2, 0.5]]}', "blocks"),
        ],
        ids=["simulate-object", "simulate-seed", "simulate-dependence", "bounds"],
    )
    def test_duplicate_key_exits_two(self, capsys, tmp_path, command, text, key):
        err = self.run_file(capsys, tmp_path, command, text)
        assert err == f'duplicate key "{key}"\n'

    def test_empty_dependence_names_its_missing_field(self, capsys, tmp_path):
        err = self.run_file(capsys, tmp_path, "bounds", "{}")
        assert err == "missing field 'blocks'\n"

    def test_key_is_shown_in_json_spelling(self, capsys, tmp_path):
        text = f'{{{SIMULATE_BODY}, "s\\"eed\\u00e9": 1}}'
        err = self.run_file(capsys, tmp_path, "simulate", text)
        assert err == f'unknown key "s\\"eed\\u00e9"; allowed keys: {SIMULATE_KEYS}\n'


# The mutation property: one fault in an otherwise valid input exits 2 with
# a message naming the key or field it is in, and never with a traceback.
# Inputs are the command's file, or one corpus record; each object is a list
# of (key, value) pairs so that a mutation can repeat a key.
class Pairs(list):
    """A JSON object as its (key, value) pairs."""


def as_pairs(value):
    if isinstance(value, dict):
        return Pairs((k, as_pairs(v)) for k, v in value.items())
    if isinstance(value, list):
        return [as_pairs(v) for v in value]
    return value


def dumps(value):
    if isinstance(value, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {dumps(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(dumps(v) for v in value) + "]"
    return json.dumps(value)


VALID_INPUTS = {
    "tv": [0.4, 0.6],
    "bounds": {"blocks": [[10, 0.5], [2, 0.25]]},
    "simulate": {
        "m": [0.4, 0.6], "h": [0.5, 0.5], "n_values": [1, 3], "trials_per_class": 20,
        "dependence": {"blocks": [[2, 0.5]]}, "seed": 3,
    },
    "corpus": {"id": "x", "text": "a b c", "label": "human"},
}
OPTIONAL_KEYS = {"dependence", "seed"}  # of the simulate config; every other key is required
CORPUS_LINES = [json.dumps({"id": f"h{i}", "text": "a b a", "label": "human"}) for i in range(3)]

# A value of each JSON type, for a value of another type to be replaced with.
JSON_TYPES = {
    str: st.text(max_size=3),
    bool: st.booleans(),
    type(None): st.none(),
    int: st.integers(-5, 5),
    float: st.floats(-5, 5).filter(lambda x: not x.is_integer()),
    list: st.lists(st.integers(0, 3), max_size=2),
    Pairs: st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2).map(as_pairs),
}


def nodes(value, path=()):
    """Every (path, node) below ``value``; a step indexes a list or an object's pairs."""
    if isinstance(value, Pairs):
        children = [v for _, v in value]
    elif isinstance(value, list):
        children = value
    else:
        return
    for i, child in enumerate(children):
        yield path + (i,), child
        yield from nodes(child, path + (i,))


def replace(value, path, new):
    """``value`` with the node at ``path`` replaced by ``new(node)``, which may return pairs."""
    if not path:
        return new(value)
    i, rest = path[0], path[1:]
    out = type(value)(value)
    if isinstance(value, Pairs):
        out[i] = (value[i][0], replace(value[i][1], rest, new))
    else:
        out[i] = replace(value[i], rest, new)
    return out


@st.composite
def mutations(draw, command):
    """``(text, pattern)``: a mutated input, and a regex its error must match."""
    valid = as_pairs(VALID_INPUTS[command])
    objects = [(p, v) for p, v in [((), valid), *nodes(valid)] if isinstance(v, Pairs)]
    choices = [("type", p, v) for p, v in nodes(valid)]
    choices += [(kind, p, v) for p, v in nodes(valid) for kind in ("range", "nonfinite")
                if type(v) in (int, float)]
    choices += [("range", p, v) for p, v in nodes(valid) if type(v) is str]
    for p, obj in objects:
        for i, (key, _) in enumerate(obj):
            choices.append(("repeat", p, (i, key)))
            if not (p == () and key in OPTIONAL_KEYS):
                choices.append(("drop", p, (i, key)))
        if command != "corpus":  # a record's other keys are metadata
            choices.append(("unknown", p, {k for k, _ in obj}))
    kind, path, node = draw(st.sampled_from(choices))

    def field(path):
        """The error names the top-level key the path is under, or a tv file's element."""
        if command == "tv":
            return rf"(element {path[0] + 1} of 2|probs)"
        key = valid[path[0]][0]
        return rf"(field '{key}'|^{key} must be)"

    if kind == "type":
        kinds = [t for t in JSON_TYPES if t is not type(node)]
        if type(node) is float:
            kinds.remove(int)  # an integer is a number
        if command == "simulate" and len(path) == 1 and valid[path[0]][0] == "dependence":
            kinds.remove(type(None))  # "dependence": null runs iid
        new = draw(st.sampled_from(kinds).flatmap(JSON_TYPES.get))
        mutated, pattern = replace(valid, path, lambda _: new), field(path)
    elif kind == "nonfinite":
        new = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        mutated, pattern = replace(valid, path, lambda _: new), field(path)
    elif kind == "range":
        new = "" if isinstance(node, str) else -abs(node) - 1
        mutated, pattern = replace(valid, path, lambda _: new), field(path)
    elif kind == "unknown":
        key = draw(st.text(max_size=5).filter(lambda k: k not in node))
        mutated = replace(valid, path, lambda obj: Pairs(obj + [(key, 1)]))
        pattern = re.escape(f"unknown key {json.dumps(key)}")
    else:
        i, key = node
        if kind == "repeat":
            mutated = replace(valid, path, lambda obj: Pairs(obj + [obj[i]]))
            pattern = re.escape(f"duplicate key {json.dumps(key)}")
        else:
            mutated = replace(valid, path, lambda obj: Pairs(obj[:i] + obj[i + 1:]))
            pattern = re.escape(f"missing field '{key}'")
    return dumps(mutated), pattern


def run_input(directory, command, text):
    """``(exit code, stderr after the file's name)`` of ``command`` on input ``text``."""
    path = directory / f"{command}.json"
    other = directory / "other.json"
    if command == "corpus":
        text = "\n".join(CORPUS_LINES + [text]) + "\n"
        other.write_text(CORPUS_LINES[0].replace("human", "machine") + "\n")
        argv = ["corpus", "tv-by-order", "--human", path, "--machine", other, "--orders", "1"]
    else:
        other.write_text("[0.5, 0.5]")
        argv = {
            "tv": ["tv", path, other],
            "bounds": ["bounds", "--delta", "0.1", "--epsilon", "0.9", "--dependence", path],
            "simulate": ["simulate", path],
        }[command]
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    prefix = f"detectability: error: {path}: " + ("line 4: " if command == "corpus" else "")
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue().removeprefix(prefix)


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations")


@pytest.mark.parametrize("command", list(VALID_INPUTS))
def test_the_unmutated_input_runs(mutation_dir, command):
    assert run_input(mutation_dir, command, dumps(as_pairs(VALID_INPUTS[command])))[0] == 0


@pytest.mark.parametrize("command", list(VALID_INPUTS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_mutation_exits_two_naming_its_key(mutation_dir, command, data):
    text, pattern = data.draw(mutations(command))
    code, err = run_input(mutation_dir, command, text)
    assert code == 2, (text, err)
    assert re.search(pattern, err), (text, pattern, err)


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

    @pytest.mark.parametrize("mode", ["train-ablate", "pairwise"])
    def test_counts_space_trains_at_the_default_flags(self, capsys, tmp_path, mode):
        # 40 documents of 30 tokens a side over 20 Zipf words: plain gradient
        # steps of 0.1 diverged on these raw counts in both modes (exit 1)
        rng = np.random.default_rng(0)
        zipf = 1.0 / np.arange(1, 21) ** 1.05
        zipf /= zipf.sum()
        machine = 0.8 * zipf + 0.2 * zipf[rng.permutation(20)]
        hp, mp = tmp_path / "h.jsonl", tmp_path / "m.jsonl"
        write_jsonl(hp, unigram_docs(rng, zipf, Label.HUMAN, 40, 30, "h"))
        write_jsonl(mp, unigram_docs(rng, machine, Label.MACHINE, 40, 30, "m"))
        code, out, err = run(
            capsys, "corpus", mode, "--human", str(hp), "--machine", str(mp),
            "--space", "counts",
        )
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        for r in rows:
            assert 0 < int(r["epochs"]) < 500
            assert 0.0 < float(r["final_loss"]) < math.log(2)

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

    @pytest.mark.parametrize("strict", [True, False])
    def test_line_not_utf8(self, capsys, corpus_files, tmp_path, strict):
        hp, mp = corpus_files
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(open(hp, "rb").read() + b'{"id": "x", "text": "\xe9", "label": "human"}\n')
        argv = ["corpus", "tv-by-order", "--human", str(bad), "--machine", mp, "--orders", "1"]
        code, out, err = run(capsys, *argv, *([] if strict else ["--lenient"]))
        if strict:
            assert code == 2
            assert out == ""
            assert err == (
                f"detectability: error: {bad}: line 41: byte 0xe9 at column 22 is not UTF-8\n"
            )
        else:
            assert code == 0
            assert err == f"detectability: skipped 1 bad line(s) in {bad}\n"

    @pytest.mark.parametrize(
        "label", [["human"], {"human": 1}, 1], ids=["list", "object", "number"]
    )
    def test_non_string_label(self, capsys, corpus_files, tmp_path, label):
        hp, mp = corpus_files
        bad = tmp_path / "bad.jsonl"
        record = json.dumps({"id": "x", "text": "y", "label": label})
        bad.write_text(open(hp, encoding="utf-8").read() + record + "\n")
        argv = ["corpus", "tv-by-order", "--human", str(bad), "--machine", mp, "--orders", "1"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == (
            f"detectability: error: {bad}: line 41: field 'label' must be 'human' or 'machine'\n"
        )
        code, _, err = run(capsys, *argv, "--lenient")
        assert code == 0
        assert err == f"detectability: skipped 1 bad line(s) in {bad}\n"

    @pytest.mark.parametrize("strict", [True, False])
    def test_repeated_key_is_a_bad_line(self, capsys, corpus_files, strict):
        hp, mp = corpus_files
        with open(hp, "a", encoding="utf-8") as fh:
            fh.write('{"id": "x", "text": "a b", "label": "human", "label": "machine"}\n')
        line = len(Path(hp).read_text(encoding="utf-8").splitlines())
        argv = ["corpus", "tv-by-order", "--human", hp, "--machine", mp, "--orders", "1"]
        code, out, err = run(capsys, *argv, *([] if strict else ["--lenient"]))
        if strict:
            assert (code, out) == (2, "")
            assert err == f'detectability: error: {hp}: line {line}: duplicate key "label"\n'
        else:
            assert code == 0
            assert err == f"detectability: skipped 1 bad line(s) in {hp}\n"

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


INT_LIST_FLAGS = [
    (["curve", "--delta", "0.1"], "--n-list"),
    (["corpus", "tv-by-order"], "--orders"),
    (["corpus", "train-ablate"], "--lengths"),
    (["corpus", "pairwise"], "--k-values"),
]


class TestIntListFlags:
    def run_flag(self, capsys, corpus_files, argv, flag, value):
        if argv[0] == "corpus":
            hp, mp = corpus_files
            argv = argv + ["--human", hp, "--machine", mp]
        return run(capsys, *argv, flag, value)

    @pytest.mark.parametrize("value", ["1,,4", "1,4,", " ,3"])
    @pytest.mark.parametrize("argv, flag", INT_LIST_FLAGS)
    def test_empty_element_exit_two(self, capsys, corpus_files, argv, flag, value):
        code, out, err = self.run_flag(capsys, corpus_files, argv, flag, value)
        assert code == 2
        assert flag in err and "empty" in err
        assert out == ""

    @pytest.mark.parametrize(
        "value, reason",
        [("0,1", "must be a positive integer"), ("4,2", "must be strictly ascending")],
    )
    @pytest.mark.parametrize("argv, flag", INT_LIST_FLAGS)
    def test_bad_values_name_the_flag(self, capsys, corpus_files, argv, flag, value, reason):
        code, out, err = self.run_flag(capsys, corpus_files, argv, flag, value)
        assert code == 2
        assert f"{flag} {reason}" in err
        assert out == ""

    def test_order_above_max_is_domain_error(self, capsys, corpus_files):
        code, out, err = self.run_flag(
            capsys, corpus_files, ["corpus", "tv-by-order"], "--orders", "1,7"
        )
        assert code == 1
        assert "orders must be an integer in 1..6, got 7" in err
        assert out == ""


class TestFlagSurface:
    @pytest.mark.parametrize(
        "argv",
        [
            ["tv", "{m}", "{h}", "--seed", "1"],
            ["bounds", "--delta", "0.1", "--epsilon", "0.9", "--lenient"],
            ["curve", "--delta", "0.1", "--n-list", "1,2", "--seed", "1"],
            ["simulate", "{m}", "--strict"],
        ],
    )
    def test_flags_nothing_reads_are_rejected(self, capsys, bern_pair, argv):
        m, h = bern_pair
        code, out, err = run(capsys, *[a.format(m=m, h=h) for a in argv])
        assert code == 2
        assert "unrecognized arguments" in err
        assert out == ""

    @pytest.mark.parametrize(
        "mode, flag, value",
        [("tv-by-order", flag, value) for flag, value in [
            ("--seed", "0"), ("--lengths", "5"), ("--k-values", "1"),
            ("--train-frac", "0.7"), ("--space", "tfidf"), ("--min-df", "2"),
            ("--epochs", "500"), ("--l2", "0.0001"),
        ]]
        # the first step is fixed, so no mode takes a step size
        + [(mode, "--lr", "0.1") for mode in ("tv-by-order", "train-ablate", "pairwise")]
        + [
            ("train-ablate", "--orders", "1"),
            ("train-ablate", "--k-values", "1"),
            ("pairwise", "--orders", "1"),
            ("pairwise", "--lengths", "5"),
        ]
        # strict is the default; --lenient is the one switch
        + [(mode, "--strict", None) for mode in ("tv-by-order", "train-ablate", "pairwise")],
    )
    def test_corpus_mode_rejects_flags_it_does_not_read(
        self, capsys, corpus_files, mode, flag, value
    ):
        hp, mp = corpus_files
        given = [flag] if value is None else [flag, value]
        code, out, err = run(
            capsys, "corpus", mode, "--human", hp, "--machine", mp, *given
        )
        assert code == 2
        assert f"unrecognized arguments: {flag}" in err
        assert out == ""

    @pytest.mark.parametrize("mode", ["train-ablate", "pairwise"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--l2", "-1", "must lie in [0, inf), got -1.0"),
            ("--l2", "nan", "must lie in [0, inf), got nan"),
            ("--l2", "inf", "must lie in [0, inf), got inf"),
            ("--epochs", "0", "must be a positive integer, got 0"),
            ("--train-frac", "0", "must lie in (0, 1), got 0.0"),
            ("--train-frac", "1", "must lie in (0, 1), got 1.0"),
            ("--min-df", "0", "must be a positive integer, got 0"),
            ("--space", "hashing", "must be one of ('counts', 'tfidf'), got 'hashing'"),
        ],
    )
    def test_bad_training_flag_exits_2_naming_it_before_loading(
        self, capsys, tmp_path, mode, flag, value, message
    ):
        # the corpora do not exist: the flag is checked before they are read
        missing = str(tmp_path / "missing.jsonl")
        code, out, err = run(
            capsys, "corpus", mode, "--human", missing, "--machine", missing, flag, value
        )
        assert code == 2
        assert err == f"detectability: error: {flag} {message}\n"
        assert out == ""

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--l2", "nan", "l2"), ("--l2", "inf", "l2")],
    )
    def test_non_finite_training_settings_name_the_field(
        self, capsys, corpus_files, flag, value, field
    ):
        hp, mp = corpus_files
        code, out, err = run(
            capsys, "corpus", "pairwise", "--human", hp, "--machine", mp, flag, value
        )
        assert code == 2
        # named by the flag, not by the library field it sets
        assert err.startswith(f"detectability: error: {flag} must lie in ")
        assert f"error: {field} " not in err and f"got {value}" in err
        assert out == ""

    @pytest.mark.parametrize(
        "mode, flag", [("train-ablate", "--lengths"), ("pairwise", "--k-values")]
    )
    def test_bad_l2_is_reported_before_a_bad_list(
        self, capsys, corpus_files, mode, flag
    ):
        hp, mp = corpus_files
        code, out, err = run(
            capsys, "corpus", mode, "--human", hp, "--machine", mp,
            "--l2", "-1", flag, "3,1",
        )
        assert code == 2
        assert "--l2 must lie in [0, inf), got -1.0" in err
        assert out == ""

    @pytest.mark.parametrize("mode", ["train-ablate", "pairwise"])
    def test_corpus_negative_seed_names_the_flag(self, capsys, corpus_files, mode):
        hp, mp = corpus_files
        code, out, err = run(
            capsys, "corpus", mode, "--human", hp, "--machine", mp, "--seed", "-1"
        )
        assert code == 2
        assert "--seed must be an integer >= 0, got -1" in err
        assert out == ""

    def test_corpus_keeps_seed_and_strictness(self, capsys, corpus_files):
        hp, mp = corpus_files
        argv = [
            "corpus", "train-ablate", "--human", hp, "--machine", mp,
            "--lengths", "5", "--epochs", "20",
        ]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        header, _ = parse_csv(out)
        assert '"seed":0' in header and '"strict":true' in header
        code, out, _ = run(capsys, *argv, "--seed", "3", "--lenient")
        assert code == 0
        header, _ = parse_csv(out)
        assert '"seed":3' in header and '"strict":false' in header


    # Each corpus mode's defaults, pinned through the whole echoed config.
    @pytest.mark.parametrize(
        "mode, line",
        [
            (
                "tv-by-order",
                '# detectability version=0.1.0 config={"command":"corpus tv-by-order",'
                '"format":"csv","human":"{human}","machine":"{machine}",'
                '"orders":[1,2,3,4],"strict":true}',
            ),
            (
                "train-ablate",
                '# detectability version=0.1.0 config={"command":"corpus train-ablate",'
                '"epochs":500,"format":"csv","human":"{human}","l2":0.0001,'
                '"lengths":[5,10,20,50,100],"machine":"{machine}",'
                '"min_df":2,"seed":0,"space":"tfidf","strict":true,"train_frac":0.7}',
            ),
            (
                "pairwise",
                '# detectability version=0.1.0 config={"command":"corpus pairwise",'
                '"epochs":500,"format":"csv","human":"{human}","k_values":[1,2],'
                '"l2":0.0001,"machine":"{machine}","min_df":2,'
                '"seed":0,"space":"tfidf","strict":true,"train_frac":0.7}',
            ),
        ],
        ids=["tv-by-order", "train-ablate", "pairwise"],
    )
    def test_corpus_defaults_are_pinned(self, capsys, corpus_files, mode, line):
        hp, mp = corpus_files
        code, out, _ = run(capsys, "corpus", mode, "--human", hp, "--machine", mp)
        assert code == 0
        expected = line.replace("{human}", hp).replace("{machine}", mp)
        assert out.splitlines()[0] == expected

    @pytest.mark.parametrize("mode", ["train-ablate", "pairwise"])
    def test_training_flags_are_the_config_fields(self, mode):
        # one flag per TrainConfig field, in field order, parsed as the
        # field's type; the flags hold no default, so a field no flag sets
        # takes the library's and the parser copies none of them
        from detectability.textlab import TrainConfig

        declared = dataclasses.fields(TrainConfig)
        assert list(_TRAINING_FLAGS) == [f.name for f in declared]
        for f in declared:
            assert _TRAINING_FLAGS[f.name][1] is type(f.default), f.name
        args = build_parser().parse_args(["corpus", mode, "--human", "h", "--machine", "m"])
        assert set(vars(args)).isdisjoint(_TRAINING_FLAGS)

    def test_k_above_a_test_class_size_names_the_first_class(self, capsys, corpus_files):
        # 40 documents a side leave 12 a side in the test split; human comes first
        hp, mp = corpus_files
        code, out, err = run(
            capsys, "corpus", "pairwise", "--human", hp, "--machine", mp,
            "--k-values", "1,40",
        )
        assert code == 1
        assert "class 'human' has 12 documents, fewer than k=40" in err
        assert out == ""


# A JSON integer past the float range, Python's digit limit, or numpy's C long.
TOO_BIG = [
    (
        ["tv", "m.json", "h.json"],
        {"m.json": [10**400, 0], "h.json": [0.5, 0.5]},
        "m.json: element 1 of 2 must be a finite number, got 1000",
    ),
    (
        ["bounds", "--delta", "0.1", "--epsilon", "0.9", "--dependence", "dep.json"],
        {"dep.json": {"blocks": [[2, 10**400]]}},
        "dep.json: field 'blocks': block 1 of 1: rho must be a finite number, got 1000",
    ),
    (
        ["bounds", "--delta", "0.1", "--epsilon", "0.9", "--dependence", "dep.json"],
        {"dep.json": {"blocks": [[10**400, 0.5]]}},
        "dep.json: field 'blocks': block 1 of 1: size must be a finite number, got 1000",
    ),
    (
        ["tv", "m.json", "h.json"],
        {"m.json": "[" + "1" * 5000 + ", 0]", "h.json": [0.5, 0.5]},
        "m.json: ",  # then Python's digit-limit message, or the float-range one
    ),
    (
        ["simulate", "sim.json"],
        {"sim.json": {"m": [0.4, 0.6], "h": [0.5, 0.5], "n_values": [10**20],
                      "trials_per_class": 5}},
        "sim.json: n_values must be an integer in 1..9223372036854775807, "
        "got 100000000000000000000",
    ),
]


@pytest.mark.parametrize(
    "argv, files, message", TOO_BIG, ids=["tv", "rho", "block-size", "tv-digits", "n-values"]
)
def test_numbers_too_big_exit_two(capsys, tmp_path, monkeypatch, argv, files, message):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        Path(name).write_text(content if isinstance(content, str) else json.dumps(content))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"detectability: error: {message}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["tv", "deep.json", "h.json"],
        ["simulate", "deep.json"],
        ["bounds", "--delta", "0.1", "--epsilon", "0.9", "--dependence", "deep.json"],
    ],
    ids=["tv", "simulate", "dependence"],
)
def test_nesting_past_the_recursion_limit_exits_two(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    Path("deep.json").write_text("[" * 100_000)
    Path("h.json").write_text("[0.5, 0.5]")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("detectability: error: deep.json: maximum recursion depth exceeded")


@pytest.mark.parametrize(
    "bad", ['{"id": "x", "text": "y", "label": "human", "n": ' + "1" * 5000 + "}", "[" * 100_000],
    ids=["huge-int", "deep"],
)
def test_corpus_line_past_json_limits_is_a_bad_line(capsys, corpus_files, bad):
    hp, mp = corpus_files
    with open(hp, "a", encoding="utf-8") as fh:
        fh.write(bad + "\n")
    line = len(Path(hp).read_text(encoding="utf-8").splitlines())
    argv = ["corpus", "tv-by-order", "--human", hp, "--machine", mp, "--orders", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"detectability: error: {hp}: line {line}: unreadable JSON: ")
    code, out, err = run(capsys, *argv, "--lenient")
    assert code == 0
    assert err == f"detectability: skipped 1 bad line(s) in {hp}\n"


@pytest.mark.parametrize(
    "module, name, argv",
    [
        ("distributions", "tv_distance", ["tv", "{m}", "{h}"]),
        ("bounds", "auroc_vs_n_curve", ["curve", "--delta", "0.1", "--n-list", "1,2"]),
        ("corpus", "best_auroc_by_order", ["corpus", "tv-by-order", "--orders", "1"]),
        ("textlab", "pairwise_auroc", ["corpus", "pairwise", "--epochs", "5"]),
    ],
)
def test_commands_call_the_library_through_its_modules(
    capsys, monkeypatch, bern_pair, corpus_files, module, name, argv
):
    # the benchmark's tracer replaces a function on its module: the CLI must
    # look each up there when it runs, not keep a binding of its own
    mod = importlib.import_module(f"detectability.{module}")
    calls = []
    original = getattr(mod, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(mod, name, counting)
    m, h = bern_pair
    argv = [a.format(m=m, h=h) for a in argv]
    if argv[0] == "corpus":
        argv += ["--human", corpus_files[0], "--machine", corpus_files[1]]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert calls == [name]


class TestOutputHandling:
    def test_csv_cells_are_pinned(self):
        # None (and a missing key) is blank; a float, numpy float64 too, is float.__repr__
        rows = [
            {"none": None, "inf": math.inf, "neg0": -0.0, "tiny": 1e-300, "int": 7,
             "str": 'a,"b"', "np": np.float64(0.1)},
            {"inf": -math.inf, "np": np.float64(np.inf)},
        ]
        text = _render(rows, {"k": 1}, "csv")
        assert text.split("\n", 1)[1] == (
            "none,inf,neg0,tiny,int,str,np\n"
            ',inf,-0.0,1e-300,7,"a,""b""",0.1\n'
            ",-inf,,,,,inf\n"
        )
        # a lone blank cell is quoted, so the row is not read as empty
        assert _render([{"x": None}], {}, "csv").split("\n", 1)[1] == 'x\n""\n'

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

    def test_out_naming_a_directory_exits_two_and_removes_its_temp_file(
        self, capsys, bern_pair, tmp_path
    ):
        # the text is written to a temp file beside the target, which cannot
        # replace a directory; the temp file goes before the error is shown
        target = tmp_path / "result"
        target.mkdir()
        code, out, err = run(capsys, "tv", *bern_pair, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("detectability: error: ")
        assert sorted(os.listdir(tmp_path)) == ["h.json", "m.json", "result"]
        assert os.listdir(target) == []

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


# Each table's columns are its library row type's fields, so a renamed field
# would rename a column; these literal lists pin every header.
COLUMN_CONTRACT = [
    (["tv", "{m}", "{h}"], ["tv", "chernoff_information", "auroc_upper"]),
    (
        ["bounds", "--delta", "0.1", "--epsilon", "0.9", "--dependence", "{dep}"],
        ["kind", "alpha", "n", "tv_lower", "auroc_upper"],
    ),
    (
        ["curve", "--delta", "0.1", "--n-list", "1,2"],
        ["kind", "n", "tv_lower", "auroc_upper", "fpr", "tpr"],
    ),
    (
        ["simulate", "{sim}"],
        ["n", "empirical_auroc", "auroc_upper_exact", "auroc_upper_chernoff"],
    ),
    (
        ["corpus", "tv-by-order", "--human", "{human}", "--machine", "{machine}"],
        ["order", "tv", "auroc_upper", "support_overlap"],
    ),
    (
        ["corpus", "train-ablate", "--human", "{human}", "--machine", "{machine}",
         "--lengths", "5", "--epochs", "20"],
        ["length", "test_auroc", "epochs", "final_loss"],
    ),
    (
        ["corpus", "pairwise", "--human", "{human}", "--machine", "{machine}",
         "--epochs", "20"],
        ["k", "test_auroc", "epochs", "final_loss"],
    ),
]


@pytest.mark.parametrize(
    "argv, columns", COLUMN_CONTRACT, ids=[" ".join(a[:2]) for a, _ in COLUMN_CONTRACT]
)
def test_column_contract(capsys, tmp_path, bern_pair, corpus_files, argv, columns):
    dep = tmp_path / "dep.json"
    dep.write_text(json.dumps({"blocks": [[10, 0.5]]}))
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps(
        {"m": [0.4, 0.6], "h": [0.5, 0.5], "n_values": [1, 2], "trials_per_class": 20}
    ))
    paths = dict(
        m=bern_pair[0], h=bern_pair[1], dep=str(dep), sim=str(sim),
        human=corpus_files[0], machine=corpus_files[1],
    )
    argv = [a.format(**paths) for a in argv]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[1].split(",") == columns
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows and all(list(row) == sorted(columns) for row in rows)


class TestEntryPoint:
    """``python -m detectability`` runs ``cli.entry``: ``main``'s output and code."""

    def test_prints_what_main_prints(self, capsys, bern_pair):
        _, expected, _ = run(capsys, "tv", *bern_pair)
        proc = run_module("tv", *bern_pair)
        assert proc.returncode == 0
        assert proc.stdout == expected
        assert proc.stderr == ""

    def test_bad_flag_exits_two(self, bern_pair):
        proc = run_module("tv", *bern_pair, "--seed", "1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "unrecognized arguments: --seed 1" in proc.stderr
