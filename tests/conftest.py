"""Shared fixtures for the heavy Monte Carlo batches.

The long-running simulations are computed once per session because both
the module tests and the acceptance suite consume them; everything here
is deterministic, so sharing changes nothing but wall time.
"""

import pytest


@pytest.fixture(scope="session")
def multiuser_batch():
    """200-trial shared-vs-ideal comparison, 4 users, N = 32, seed 2024."""
    from ris_sim.experiments import prepare, run

    return run(prepare("multiuser", {"n_elements": 32}, seed=2024, trials=200))


@pytest.fixture(scope="session")
def rerand_stale_batch():
    """(fresh, stale, loss) rates of 10^4 stale-CSI trials under per-slot
    rerandomization, seed 2024, from the runner's `stale_rates` call."""
    from ris_sim.coexist import stale_rates
    from ris_sim.experiments import _coex_scenario, resolve_scenario

    scn = _coex_scenario(resolve_scenario("coexist", {}))
    fresh, stale, loss = stale_rates(scn, 10_000, 2024)
    return fresh[0], stale[0], loss[0]


@pytest.fixture(scope="session")
def quantization_ratio_pair():
    """(simulated, oracle) mean 1-bit power loss over 16-element channels.

    The simulated route draws 10^4 seeded trials one at a time, then
    aligns, quantizes and takes both gains on the stacked draws; the
    oracle is an independent dense Monte Carlo estimate of the same
    expectation.
    """
    import numpy as np

    from oracles import quantization_ratio_oracle
    from ris_sim.ris import align_miso, miso_gains, quantize_phases
    from ris_sim.seeding import complex_normal, rng_from

    n, trials = 16, 10_000
    rng = rng_from(321, "quantloss")
    g = np.empty((trials, n), dtype=np.complex128)
    h = np.empty((trials, n), dtype=np.complex128)
    for t in range(trials):
        g[t] = complex_normal(rng, n)
        h[t] = complex_normal(rng, n)
    phases = align_miso(g, h)
    cont = np.array(miso_gains(g, h, phases))
    coarse = np.array(miso_gains(g, h, quantize_phases(phases, 1)))
    sim_ratio = float(coarse.mean() / cont.mean())
    oracle_ratio = quantization_ratio_oracle(n, 1, 200_000, seed=99)
    return sim_ratio, oracle_ratio


@pytest.fixture
def seeded_streams(monkeypatch):
    """The labels of the generators seeded through `seeding.rng_from`, in
    seeding order, in every package module that draws through it."""
    from ris_sim import coexist, experiments, seeding

    labels = []
    rng_from = seeding.rng_from

    def spy(seed, label=None):
        labels.append(label)
        return rng_from(seed, label)

    for module in (seeding, experiments, coexist):
        monkeypatch.setattr(module, "rng_from", spy)
    return labels
