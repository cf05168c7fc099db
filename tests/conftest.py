"""Shared fixtures for the heavy Monte Carlo batches.

The long-running simulations are computed once per session because both
the module tests and the acceptance suite consume them; everything here
is deterministic, so sharing changes nothing but wall time.
"""

import pytest


@pytest.fixture(scope="session")
def multiuser_batch():
    """200-trial shared-vs-ideal comparison, 4 users, N = 32, seed 2024."""
    from ris_sim.experiments import run_multiuser

    return run_multiuser({"n_elements": 32}, seed=2024, trials=200)


@pytest.fixture(scope="session")
def rerand_stale_batch():
    """(fresh, stale, loss) rates of 10^4 stale-CSI trials under per-slot
    rerandomization, seed 2024, from the runner's `stale_rates` call."""
    from ris_sim.coexist import stale_rates
    from ris_sim.experiments import _coex_scenario, resolve_scenario

    scn = _coex_scenario(resolve_scenario("coexist", {}), same_frequency=True)
    fresh, stale, loss = stale_rates(scn, range(10_000), 2024)
    return fresh[0], stale[0], loss[0]


@pytest.fixture(scope="session")
def quantization_ratio_pair():
    """(simulated, oracle) mean 1-bit power loss over 16-element channels.

    The simulated route goes through align + quantize + composite on 10^4
    seeded draws; the oracle is an independent dense Monte Carlo estimate
    of the same expectation.
    """
    import numpy as np

    from oracles import quantization_ratio_oracle
    from ris_sim.ris import align_phases_miso, composite_gain, quantize_phases
    from ris_sim.seeding import complex_normal, rng_from

    n, trials = 16, 10_000
    rng = rng_from(321, "quantloss")
    cont = np.empty(trials)
    coarse = np.empty(trials)
    for t in range(trials):
        g = complex_normal(rng, n)
        h = complex_normal(rng, n)
        panel = align_phases_miso(g, h)
        cont[t] = abs(composite_gain(g, h, panel)) ** 2
        coarse[t] = abs(composite_gain(g, h, quantize_phases(panel, 1))) ** 2
    sim_ratio = float(coarse.mean() / cont.mean())
    oracle_ratio = quantization_ratio_oracle(n, 1, 200_000, seed=99)
    return sim_ratio, oracle_ratio
