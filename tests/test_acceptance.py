"""Acceptance gate: eleven end-to-end checks, one test (and one
``ACCEPTANCE PASS``/``FAIL`` line) per criterion.

Each criterion carries a wall-clock budget; blowing the budget fails the
criterion just like a wrong number would.  Run with ``pytest -v`` for the
per-criterion verdicts, add ``-s`` to see the printed lines live.
"""

import csv
import io
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import spearmanr

from detectability import (
    Categorical,
    DependenceSpec,
    ExperimentConfig,
    Label,
    TrainConfig,
    auroc_upper,
    auroc_vs_n_curve,
    auroc_vs_prefix_length,
    best_auroc_by_order,
    min_error_bruteforce,
    pairwise_auroc,
    product_tv_exact,
    roc_from_scores,
    run_experiment,
    sample_complexity_iid,
    sample_complexity_noniid,
    train_logreg,
    tv_distance,
    tv_tensor_lower,
)
from detectability import textlab
from detectability.cli import main
from detectability.textlab import _logreg_loss

import scipy.sparse as sp

from _synth import markov_docs, rand_pair, unigram_docs, write_jsonl

BERN_6 = Categorical.bernoulli(0.6)
BERN_5 = Categorical.bernoulli(0.5)


@contextmanager
def criterion(num: int, desc: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if elapsed >= budget_seconds:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeded the {budget_seconds:.0f}s budget"
            )
    except BaseException:
        print(f"ACCEPTANCE FAIL: criterion {num:02d} - {desc}")
        raise
    print(f"ACCEPTANCE PASS: criterion {num:02d} - {desc}")


def read_csv_output(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0].startswith("# detectability")
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def test_criterion_01_ceiling_anchor_and_monotone_family(tmp_path):
    with criterion(1, "ceiling anchor 0.595 and monotone ceiling-vs-n family", 1.0):
        assert auroc_upper(0.1) == pytest.approx(0.595, abs=1e-12)
        out = tmp_path / "curve.csv"
        code = main(
            [
                "curve", "--delta", "0.1",
                "--n-list", "1,2,4,8,16,32,64,128,256,512",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv_output(out)
        aucs = [float(r["auroc_upper"]) for r in rows if r["kind"] == "bound"]
        assert len(aucs) == 10
        assert all(b >= a for a, b in zip(aucs, aucs[1:]))
        assert aucs[0] == pytest.approx(0.595, abs=1e-12)


def test_criterion_02_minimum_error_equals_one_minus_tv():
    with criterion(
        2, "brute-force min error = 1 - TV and the LR region attains it", 60.0
    ):
        rng = np.random.default_rng(1002)
        for _ in range(1000):
            p, q = rand_pair(rng, int(rng.integers(2, 13)), zero_frac=0.1)
            res = min_error_bruteforce(p, q)
            target = 1.0 - tv_distance(p, q)
            assert res.min_error == pytest.approx(target, abs=1e-12)
            assert res.lr_region_error <= res.min_error + 1e-12


def test_criterion_03_product_tv_never_decreases():
    with criterion(
        3, "product-distribution TV nondecreasing in n; exact 0.11 anchor", 60.0
    ):
        assert product_tv_exact(BERN_6, BERN_5, 2) == pytest.approx(0.11, abs=1e-12)
        rng = np.random.default_rng(1003)
        for _ in range(200):
            p, q = rand_pair(rng, int(rng.integers(2, 5)))
            tvs = [product_tv_exact(p, q, n) for n in range(1, 9)]
            assert all(b >= a - 1e-12 for a, b in zip(tvs, tvs[1:]))


def test_criterion_04_iid_sample_size_constant_and_tightness():
    with criterion(
        4, "iid sample size 300 at (0.1, 0.9); returned n is minimal on a grid", 1.0
    ):
        assert sample_complexity_iid(0.1, 0.9) == 300
        for delta in np.linspace(0.05, 1.0, 20):
            for eps in np.linspace(0.5, 0.99, 20):
                d, e = float(delta), float(eps)
                n = sample_complexity_iid(d, e)
                assert 1.0 - 2.0 * math.exp(-n * d * d) >= e - 1e-12
                if n > 1:
                    assert 1.0 - 2.0 * math.exp(-(n - 1) * d * d) < e
                tv_n = tv_tensor_lower(n, d)
                if tv_n > 0.0:
                    # composed ceiling equals the closed form exactly
                    assert auroc_upper(tv_n) == pytest.approx(
                        1.0 - 2.0 * math.exp(-n * d * d), abs=1e-12
                    )


def test_criterion_05_dependent_sample_size_closed_form():
    with criterion(
        5, "dependent sample size: zero-coupling collapse and monotonicity", 1.0
    ):
        indep = DependenceSpec([(1, 0.0)])
        for delta in np.linspace(0.05, 1.0, 20):
            for eps in np.linspace(0.5, 0.99, 20):
                d, e = float(delta), float(eps)
                expect = math.ceil(math.log(8.0 / (1.0 - e)) / (d * d))
                assert sample_complexity_noniid(d, e, indep) == expect
        rng = np.random.default_rng(1005)
        for _ in range(100):
            c = int(rng.integers(2, 30))
            rho = float(rng.uniform(0.0, 0.9))
            base = sample_complexity_noniid(0.1, 0.9, DependenceSpec([(c, rho)]))
            more_rho = sample_complexity_noniid(
                0.1, 0.9, DependenceSpec([(c, min(1.0, rho + 0.1))])
            )
            more_c = sample_complexity_noniid(0.1, 0.9, DependenceSpec([(c + 5, rho)]))
            assert more_rho >= base
            assert more_c >= base


def test_criterion_06_simulation_tracks_exact_ceilings():
    with criterion(
        6, "Monte Carlo AUROC within 0.01 of 0.55 at n=1, >= 0.9 at n=300, under ceilings", 300.0
    ):
        trials = 100_000
        cfg = ExperimentConfig(
            BERN_6, BERN_5, [1, 2, 4, 8, 16, 300], trials, seed=106
        )
        rows = run_experiment(cfg)
        by_n = {r.n: r for r in rows}
        # at one sample the best detector's exact AUROC is
        # 0.6*0.5 + 0.5*(0.6*0.5 + 0.4*0.5) = 0.55
        assert abs(by_n[1].empirical_auroc - 0.55) <= 0.01
        assert by_n[300].empirical_auroc >= 0.9
        slack = 3.0 * math.sqrt(1.0 / trials)
        for row in rows:
            if row.auroc_upper_exact is not None:
                assert row.empirical_auroc <= row.auroc_upper_exact + slack


def test_criterion_07_dependence_degrades_detection():
    with criterion(
        7, "within-block coupling lowers AUROC; full coupling = n/c effective", 300.0
    ):
        trials = 20_000
        n_values = [50, 100, 300]

        def run(dep, ns):
            return run_experiment(
                ExperimentConfig(
                    BERN_6, BERN_5, ns, trials, dependence=dep, seed=107
                )
            )

        free = run(DependenceSpec([(10, 0.0)]), n_values)
        half = run(DependenceSpec([(10, 0.5)]), n_values)
        slack = 3.0 * math.sqrt(1.0 / trials)
        for f_row, h_row in zip(free, half):
            assert h_row.empirical_auroc <= f_row.empirical_auroc + slack

        # rho = 1 copies whole blocks, so n samples carry n/c of information
        full = run(DependenceSpec([(10, 1.0)]), [100, 300])
        iid = run_experiment(
            ExperimentConfig(BERN_6, BERN_5, [10, 30], trials, seed=107)
        )
        pair_slack = 6.0 * math.sqrt(1.0 / trials)
        for full_row, iid_row in zip(full, iid):
            assert full_row.n == 10 * iid_row.n
            assert abs(full_row.empirical_auroc - iid_row.empirical_auroc) <= pair_slack


def test_criterion_08_order_study_trend_and_plugin_recovery():
    with criterion(
        8, "TV climbs with n-gram order; plug-in TV recovers 0.3 within 0.03", 120.0
    ):
        rng = np.random.default_rng(88)
        k = 5
        trans_h = rng.dirichlet(np.full(k, 2.0), size=k)
        trans_m = rng.dirichlet(np.full(k, 2.0), size=k)
        h_docs = markov_docs(rng, trans_h, Label.HUMAN, 250, 100, "h")
        m_docs = markov_docs(rng, trans_m, Label.MACHINE, 250, 100, "m")
        rows = best_auroc_by_order(h_docs, m_docs, [1, 2, 3, 4])
        tvs = [r.tv for r in rows]
        assert all(b >= a for a, b in zip(tvs, tvs[1:]))
        assert tvs[-1] > tvs[0]

        rng = np.random.default_rng(8)
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.2, 0.45, 0.35])
        true_tv = 0.5 * np.abs(p - q).sum()
        assert true_tv == pytest.approx(0.3, abs=1e-12)
        h_uni = unigram_docs(rng, p, Label.HUMAN, 200, 500, "hu")
        m_uni = unigram_docs(rng, q, Label.MACHINE, 200, 500, "mu")
        est = best_auroc_by_order(h_uni, m_uni, [1])[0].tv
        assert abs(est - 0.3) <= 0.03


def test_criterion_09_prefix_and_pooling_trends():
    with criterion(
        9, "AUROC rises with prefix length (Spearman > 0.9); k=2 pooling >= k=1 - 0.02", 300.0
    ):
        rng = np.random.default_rng(99)
        base = rng.dirichlet(np.full(20, 2.0))
        shift = rng.dirichlet(np.full(20, 2.0))
        pm = 0.55 * base + 0.45 * shift
        h_docs = unigram_docs(rng, base, Label.HUMAN, 300, 64, "h")
        m_docs = unigram_docs(rng, pm, Label.MACHINE, 300, 64, "m")

        lengths = [2, 4, 8, 16, 32, 64]
        rows = auroc_vs_prefix_length(h_docs, m_docs, lengths, config=TrainConfig(seed=5))
        aucs = [r.test_auroc for r in rows]
        rho = spearmanr(lengths, aucs).statistic
        assert rho > 0.9
        assert aucs[-1] > aucs[0]

        pw = pairwise_auroc(h_docs, m_docs, k_values=(1, 2), config=TrainConfig(seed=5))
        assert pw[1].test_auroc >= pw[0].test_auroc - 0.02


def test_criterion_10_numerical_hygiene(monkeypatch):
    with criterion(
        10, "analytic gradient matches finite differences; AUROC methods agree", 60.0
    ):
        lr = 0.25
        monkeypatch.setattr(textlab, "_FIRST_STEP", lr)
        rng = np.random.default_rng(1010)
        for _ in range(50):
            n, d = int(rng.integers(2, 9)), int(rng.integers(1, 6))
            x = sp.csr_matrix(rng.normal(size=(n, d)))
            y = (rng.random(n) < 0.5).astype(int)
            y[:2] = [0, 1]
            l2 = float(rng.uniform(0.0, 0.3))
            model, _ = train_logreg(x, y, TrainConfig(epochs=1, l2=l2))
            w1 = np.concatenate([model.weights, [model.bias]])
            grad_impl = -w1 / lr

            def loss_at(wb):
                z = x @ wb[:-1] + wb[-1]
                return _logreg_loss(z, y, wb[:-1], l2)

            eps = 1e-5
            grad_fd = np.empty(d + 1)
            for j in range(d + 1):
                step = np.zeros(d + 1)
                step[j] = eps
                grad_fd[j] = (loss_at(step) - loss_at(-step)) / (2 * eps)
            assert np.max(np.abs(grad_impl - grad_fd)) < 1e-6

        for _ in range(500):
            nm = int(rng.integers(1, 13))
            nh = int(rng.integers(1, 13))
            m_scores = rng.integers(0, 4, size=nm).astype(float)
            h_scores = rng.integers(0, 4, size=nh).astype(float)
            roc = roc_from_scores(m_scores, h_scores)
            fpr = np.array([f for f, _ in roc.points])
            tpr = np.array([t for _, t in roc.points])
            trapezoid = float(np.trapezoid(tpr, fpr))
            assert abs(trapezoid - roc.auroc) <= 1e-9


def test_criterion_11_cli_reruns_are_byte_identical(tmp_path):
    with criterion(11, "every CLI command is byte-identical across reruns", 60.0):
        m_file = tmp_path / "m.json"
        h_file = tmp_path / "h.json"
        m_file.write_text(json.dumps([0.4, 0.6]))
        h_file.write_text(json.dumps([0.5, 0.5]))
        dep_file = tmp_path / "dep.json"
        dep_file.write_text(json.dumps({"blocks": [[4, 0.5]]}))
        sim_file = tmp_path / "sim.json"
        sim_file.write_text(
            json.dumps(
                {
                    "m": [0.4, 0.6],
                    "h": [0.5, 0.5],
                    "n_values": [1, 4, 16],
                    "trials_per_class": 500,
                    "seed": 11,
                }
            )
        )
        rng = np.random.default_rng(1011)
        base = rng.dirichlet(np.full(8, 2.0))
        shift = rng.dirichlet(np.full(8, 2.0))
        h_docs = unigram_docs(rng, base, Label.HUMAN, 30, 25, "h")
        m_docs = unigram_docs(
            rng, 0.6 * base + 0.4 * shift, Label.MACHINE, 30, 25, "m"
        )
        hc, mc = tmp_path / "hc.jsonl", tmp_path / "mc.jsonl"
        write_jsonl(hc, h_docs)
        write_jsonl(mc, m_docs)

        commands = {
            "tv": ["tv", str(m_file), str(h_file)],
            "bounds": [
                "bounds", "--delta", "0.1", "--epsilon", "0.9",
                "--dependence", str(dep_file),
            ],
            "curve": ["curve", "--delta", "0.2", "--n-list", "1,2,4"],
            "simulate": ["simulate", str(sim_file)],
            "corpus-tv": [
                "corpus", "tv-by-order", "--human", str(hc), "--machine", str(mc),
                "--orders", "1,2",
            ],
            "corpus-ablate": [
                "corpus", "train-ablate", "--human", str(hc), "--machine", str(mc),
                "--lengths", "5,25", "--seed", "2",
            ],
            "corpus-pairwise": [
                "corpus", "pairwise", "--human", str(hc), "--machine", str(mc),
                "--k-values", "1,2", "--seed", "2",
            ],
        }

        # raw bytes, in both formats: no column is left out of the comparison
        for fmt in ("csv", "json"):
            for name, argv in commands.items():
                out_a = tmp_path / f"{name}_a.{fmt}"
                out_b = tmp_path / f"{name}_b.{fmt}"
                assert main(argv + ["--format", fmt, "--out", str(out_a)]) == 0
                assert main(argv + ["--format", fmt, "--out", str(out_b)]) == 0
                assert out_a.read_bytes() == out_b.read_bytes(), (
                    f"{name} {fmt} output differs across reruns"
                )
