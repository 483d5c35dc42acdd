"""Does a simulated optimal detector actually hug the theoretical ceilings?

Runs the likelihood-ratio detector on Monte Carlo draws from two close
Bernoulli sources and prints empirical AUROC next to the exact ceiling and
a Chernoff floor on that ceiling, then repeats with within-block dependence
to show the slowdown.  Takes about a second.
"""

from detectability import (
    Categorical,
    DependenceSpec,
    ExperimentConfig,
    run_experiment,
)

machine = Categorical.bernoulli(0.6)
human = Categorical.bernoulli(0.5)
trials = 20_000
n_values = [1, 2, 4, 8, 16, 32, 64]


def show(rows, title):
    # the last column is the AUROC ceiling taken at the Chernoff floor on
    # the product TV, so it is a floor on the exact ceiling, not a ceiling:
    # an empirical AUROC may sit above it at any n (unlike the exact ceiling)
    print(title)
    print(f"{'n':>4} {'empirical':>10} {'exact ceiling':>14} {'ceiling floor':>14}")
    for row in rows:
        exact = "" if row.auroc_upper_exact is None else f"{row.auroc_upper_exact:.4f}"
        print(
            f"{row.n:>4} {row.empirical_auroc:>10.4f} {exact:>14}"
            f" {row.auroc_upper_chernoff:>14.4f}"
        )
    print()


iid = run_experiment(
    ExperimentConfig(machine, human, n_values, trials, seed=0)
)
show(iid, f"independent draws, {trials} trials per class:")

dep = run_experiment(
    ExperimentConfig(
        machine,
        human,
        n_values,
        trials,
        dependence=DependenceSpec([(8, 0.75)]),
        seed=0,
    )
)
show(dep, "same sources, blocks of 8 with rho = 0.75:")

print("note how the dependent run needs far more samples to reach the")
print("same empirical AUROC; the ceilings above apply to the iid case.")
