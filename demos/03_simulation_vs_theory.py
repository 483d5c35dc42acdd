"""Does a simulated optimal detector actually hug the theoretical ceilings?

Runs the likelihood-ratio detector on Monte Carlo draws from two close
Bernoulli sources and prints empirical AUROC next to the exact and
large-deviation ceilings, then repeats with within-block dependence to
show the slowdown.  Takes about half a minute.
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
    # the last column is the leading-order rate estimate 1 - exp(-n I_c)
    # pushed through the AUROC formula; it ignores lower-order terms, so
    # small-n empirical values may sit above it (unlike the exact ceiling)
    print(title)
    print(f"{'n':>4} {'empirical':>10} {'exact ceiling':>14} {'rate estimate':>14}")
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
