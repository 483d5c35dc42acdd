"""The same story on text: n-gram distances, prefix length, pooled decisions.

Builds two synthetic corpora from slightly different unigram sources and
runs the full text pipeline: plug-in TV by n-gram order (with the support
overlap that flags sparsity artifacts), one classifier trained on whole
documents and scored on test prefixes of growing length, and pooled
k-document decisions scored by that same classifier.
"""

import numpy as np

from detectability import (
    Document,
    Label,
    TrainConfig,
    auroc_vs_prefix_length,
    best_auroc_by_order,
    pairwise_auroc,
)

rng = np.random.default_rng(7)
vocab_size = 20
base = rng.dirichlet(np.full(vocab_size, 2.0))
drift = rng.dirichlet(np.full(vocab_size, 2.0))
machine_probs = 0.6 * base + 0.4 * drift

words = np.array([f"w{i:02d}" for i in range(vocab_size)])


def make_docs(probs, label, n_docs, doc_len, prefix):
    docs = []
    for i in range(n_docs):
        toks = words[rng.choice(vocab_size, size=doc_len, p=probs)]
        docs.append(Document(id=f"{prefix}{i}", text=" ".join(toks), label=label))
    return docs


human_docs = make_docs(base, Label.HUMAN, 300, 64, "h")
machine_docs = make_docs(machine_probs, Label.MACHINE, 300, 64, "m")

print("plug-in TV by n-gram order (watch the overlap column --")
print("low overlap means the TV rise is a sparsity artifact):")
print(f"{'order':>6} {'tv':>8} {'auroc ceiling':>14} {'support overlap':>16}")
for row in best_auroc_by_order(human_docs, machine_docs, [1, 2, 3]):
    print(
        f"{row.order:>6} {row.tv:>8.4f} {row.auroc_upper:>14.4f}"
        f" {row.support_overlap:>16.4f}"
    )
print()

# both studies split the documents and pool the tuples on this seed
config = TrainConfig(seed=1)
print("test AUROC of a trained classifier vs observed prefix length:")
for row in auroc_vs_prefix_length(human_docs, machine_docs, [4, 8, 16, 32, 64], config):
    print(f"  first {row.length:>3} tokens -> AUROC {row.test_auroc:.4f}")
print()

print("pooling k same-source documents per decision:")
for row in pairwise_auroc(human_docs, machine_docs, (1, 2, 4), config):
    print(f"  k = {row.k} -> test AUROC {row.test_auroc:.4f}")
print()
print("longer observation, in tokens or in pooled documents, buys back")
print("the detectability that a small per-token gap hides.")
