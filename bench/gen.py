"""Generate one workload's inputs and reference answers.

Usage::

    python3 bench/gen.py --workload sim-iid --seed 1 --scale full --dir DIR

Writes ``DIR/jobs.jsonl``, one line per job with the job's inputs and the
references its outputs are checked against, plus any shared input files.
Every job draws from its own seed, derived from the workload seed and the
job index, so no job's answer can be reused from an earlier job.  The run
script starts this in a separate process so that generating the inputs does
not count towards the measured process's memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import exact  # noqa: E402

# Each workload's streams are salted apart so equal seeds never share inputs.
SALTS = {"sim-iid": 1, "sim-block": 2, "exact-sweep": 3, "corpus": 4}

# Distinct inputs per run; a run ends early once its pool is used up.
POOL = {"sim-iid": 400, "sim-block": 400, "exact-sweep": 400, "corpus": 16}

SIZES = {
    "full": {
        "sim-iid": {"n_values": [1, 2, 4, 8, 16, 300], "trials": 2000},
        "sim-block": {"n_values": [50, 100, 300], "trials": 1000},
        "exact-sweep": {"n_values": list(range(1, 24)), "trials": 100},
        # 250 documents a side keep a job near 3 s, so a run medians over
        # several jobs; at 500 a side two jobs fit and runs spread by 11%.
        # The sides separate well: the largest length's and the largest k's
        # test AUROC read 0.997-1.0 on seeds 1-4, hence the 0.95 floor.
        "corpus": {"vocab": 5000, "docs": 250, "doc_len": (180, 220), "auroc_floor": 0.95},
    },
    "tiny": {
        "sim-iid": {"n_values": [1, 4, 16], "trials": 50},
        "sim-block": {"n_values": [50], "trials": 50},
        "exact-sweep": {"n_values": list(range(1, 9)), "trials": 20},
        # 40 short documents a side: those AUROCs read 0.67-1.0 on seeds 1-12.
        "corpus": {"vocab": 300, "docs": 40, "doc_len": (50, 70), "auroc_floor": 0.6},
    },
}

BERN_M, BERN_H = 0.6, 0.5
BLOCKS = [[10, 0.5]]
ZIPF_S = 1.05
MACHINE_MIX = 0.1  # share of machine tokens drawn through the permuted Zipf

# Surface forms of a word and how often each appears; tokenize() maps every
# form back to the bare lowercase word.
FORMS = (
    lambda w: w,
    str.capitalize,
    str.upper,
    lambda w: w + ".",
    lambda w: w + ",",
    lambda w: w + "!",
    lambda w: '"' + w,
)
FORM_PROBS = np.array([0.82, 0.08, 0.02, 0.03, 0.03, 0.01, 0.01])


def job_rng(workload: str, seed: int, job: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, SALTS[workload], job)))


def job_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _bernoulli(p: float) -> list[float]:
    return [round(1.0 - p, 12), p]


def sim_job(workload: str, size: dict, rng: np.random.Generator) -> dict:
    p_m, p_h = BERN_M, BERN_H
    if workload == "exact-sweep":
        # A fresh pair per job keeps the exact products from being reusable.
        p_m = round(BERN_M + rng.uniform(-0.02, 0.02), 6)
        p_h = round(BERN_H + rng.uniform(-0.02, 0.02), 6)
    config = {
        "m": _bernoulli(p_m),
        "h": _bernoulli(p_h),
        "n_values": size["n_values"],
        "trials_per_class": size["trials"],
        "seed": job_seed(rng),
    }
    if workload == "sim-block":
        config["dependence"] = {"blocks": BLOCKS}
    # For sim-block these are the iid references: block copying garbles n iid
    # draws, so the iid likelihood-ratio AUROC caps what it can reach.
    return {"config": config, "refs": exact.sim_refs(p_m, p_h, size["n_values"], size["trials"])}


def _vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words: dict[str, None] = {}
    while len(words) < size:
        length = int(rng.integers(3, 9))
        words.setdefault("".join(rng.choice(letters, length)), None)
    return list(words)


def _side(rng, n_docs, doc_len, zipf, perm=None) -> list[np.ndarray]:
    docs = []
    for _ in range(n_docs):
        ids = rng.choice(zipf.size, size=int(rng.integers(*doc_len, endpoint=True)), p=zipf)
        if perm is not None:
            ids = np.where(rng.random(ids.size) < MACHINE_MIX, perm[ids], ids)
        docs.append(ids)
    return docs


def _write_corpus(path: Path, docs, label: str, forms, rng) -> int:
    tokens = 0
    with open(path, "w", encoding="utf-8") as fh:
        for i, ids in enumerate(docs):
            f = rng.choice(len(FORMS), size=ids.size, p=FORM_PROBS)
            text = " ".join(forms[w][k] for w, k in zip(ids.tolist(), f.tolist()))
            fh.write(json.dumps({"id": f"{label[0]}{i}", "text": text, "label": label}))
            fh.write("\n")
            tokens += ids.size
    return tokens


def corpus_job(size: dict, rng: np.random.Generator, out_dir: Path, job: int) -> dict:
    """A human/machine JSONL pair sharing one Zipf vocabulary.

    The machine side draws 10% of its tokens through a permuted copy of the
    Zipf ranks, so the sides differ at every n-gram order while their
    supports keep overlapping.
    """
    v = size["vocab"]
    words = _vocabulary(rng, v)
    zipf = np.arange(1, v + 1, dtype=np.float64) ** -ZIPF_S
    zipf /= zipf.sum()
    human = _side(rng, size["docs"], size["doc_len"], zipf)
    machine = _side(rng, size["docs"], size["doc_len"], zipf, perm=rng.permutation(v))
    forms = [[form(w) for form in FORMS] for w in words]
    h_path, m_path = f"h{job}.jsonl", f"m{job}.jsonl"
    tokens = _write_corpus(out_dir / h_path, human, "human", forms, rng)
    tokens += _write_corpus(out_dir / m_path, machine, "machine", forms, rng)
    return {
        "human": h_path,
        "machine": m_path,
        "seed": job_seed(rng),
        "input_tokens": tokens,
        "auroc_floor": size["auroc_floor"],
        "refs": [exact.ngram_tv(human, machine, order, v) for order in (1, 2, 3, 4)],
    }


def generate(workload: str, seed: int, scale: str, out_dir: Path) -> None:
    size = SIZES[scale][workload]
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "exact-sweep":
        (out_dir / "tv_p.json").write_text(json.dumps([0.4, 0.6]))
        (out_dir / "tv_q.json").write_text(json.dumps([0.5, 0.5]))
        (out_dir / "dep.json").write_text(json.dumps({"blocks": BLOCKS}))
    with open(out_dir / "jobs.jsonl", "w", encoding="utf-8") as fh:
        for j in range(POOL[workload]):
            rng = job_rng(workload, seed, j)
            if workload == "corpus":
                spec = corpus_job(size, rng, out_dir, j)
            else:
                spec = sim_job(workload, size, rng)
            fh.write(json.dumps(spec) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SALTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=sorted(SIZES), default="full")
    ap.add_argument("--dir", required=True)
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.scale, Path(args.dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
