"""Coexistence of two operators when one controls a reflective surface.

Network B's effective channel bounces off network A's surface, so A's
reconfigurations move B's channel between B's measurement slot t1 and its
transmit slot t2.  The module quantifies that stale-CSI loss, runs a
slotted listen-before-talk medium access simulation with omnidirectional
energy sensing, and models two-pass band filtering at the surface for
adjacent-channel operation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelParams,
    Geometry,
    Scenario,
    _fixed_link,
    assemble_effective,
    assemble_stack,
    draw_realization,
    draw_stack,
    gen_rician,
    link_streams,
    path_gain,
)
from .numkernel import (
    capacity_closed_form,
    rate_with_precoder,
    singular_values,
    waterfill_precoder,
)
from .ris import _aligned_init_phases
from .seeding import KeyedStreams, rng_from, subseed

log = logging.getLogger(__name__)

UPDATE_POLICIES = ("static", "rerandomize_each_slot", "frozen_during_foreign_slot")


@dataclass(frozen=True)
class CoexNetwork:
    """One operator: base station, user, and an optional own surface."""

    name: str
    nb: str
    ue: str
    m_antennas: int
    u_antennas: int
    tx_power: float
    ris: str | None = None
    n_elements: int = 0

    def __post_init__(self):
        if self.m_antennas < 1 or self.u_antennas < 1:
            raise ValueError("antenna counts must be >= 1")
        if not (self.tx_power > 0.0 and math.isfinite(self.tx_power)):
            raise ValueError(f"tx_power must be positive, got {self.tx_power}")
        if (self.ris is None) != (self.n_elements == 0):
            raise ValueError("ris node and n_elements must be given together")
        if self.n_elements < 0:
            raise ValueError(f"n_elements must be >= 0, got {self.n_elements}")


@dataclass(frozen=True, eq=False)
class CoexScenario:
    """Two networks in one geometry plus the surface update policy of A.

    `direct_params` describes the base-station/user ground links; it
    defaults to `params` but usually carries a higher path-loss exponent
    than the elevated reflected segments.  `b_direct_blocked` obstructs
    network B's ground path entirely, leaving B connected only through
    the bounce off A's surface (the victim-in-shadow case).
    """

    geometry: Geometry
    params: ChannelParams
    net_a: CoexNetwork
    net_b: CoexNetwork
    same_frequency: bool = True
    t1: int = 0
    t2: int = 1
    ris_update_policy: str = "rerandomize_each_slot"
    direct_params: ChannelParams | None = None
    b_direct_blocked: bool = False

    def __post_init__(self):
        if self.t1 > self.t2:
            raise ValueError(f"need t1 <= t2, got t1={self.t1}, t2={self.t2}")
        if self.ris_update_policy not in UPDATE_POLICIES:
            raise ValueError(
                f"unknown ris_update_policy {self.ris_update_policy!r}; "
                f"choose one of {UPDATE_POLICIES}"
            )
        if self.direct_params is None:
            object.__setattr__(self, "direct_params", self.params)
        for net in (self.net_a, self.net_b):
            self.geometry.position(net.nb)
            self.geometry.position(net.ue)
            if net.ris is not None:
                self.geometry.position(net.ris)


def _bounce_scenario(coex: CoexScenario, seed: int) -> Scenario:
    """Network B's link as seen through network A's surface."""
    if coex.net_a.ris is None:
        raise ValueError("network A must own a surface for the bounce channel")
    return Scenario(
        geometry=coex.geometry,
        m_antennas=coex.net_b.m_antennas,
        n_elements=coex.net_a.n_elements,
        u_antennas=coex.net_b.u_antennas,
        nb_ris=coex.params,
        ris_ue=coex.params,
        nb_ue=None if coex.b_direct_blocked else coex.direct_params,
        nb=coex.net_b.nb,
        ris=coex.net_a.ris,
        ue=coex.net_b.ue,
        seed=seed,
    )


def _foreign_state(rng: np.random.Generator, n: int) -> np.ndarray:
    """Surface state drawn by the foreign controller: uniform phases."""
    return np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))


#: trials per stacked pass of `stale_rates`; bounds the memory of the
#: stacks without changing any result, since trials are independent
STALE_CHUNK = 32


def stale_rates(scenario: CoexScenario, trial_ids, seed: int, scales=(1.0,)):
    """Network B's stale-CSI rates over many trials in stacked passes.

    The one stale-CSI entry point, for the runner and `adjacent_rates`.
    B water-fills its precoder on the effective channel at t1 and transmits
    on the channel at t2, where A's surface has evolved per the update
    policy.  Each scale in `scales` multiplies the amplitude of the bounce
    off A's surface (the adjacent-band filter uses this).

    Each trial's channel and surface states are keyed on (seed, trial) and
    drawn once; every scale is evaluated on them.  Under "static" and
    "frozen_during_foreign_slot", or when t1 == t2, the t2 state is the t1
    state, so the stale rate equals the fresh one and the loss is exactly
    zero.  A trial with zero fresh rate has zero loss.

    Returns (fresh, stale, loss) arrays of shape
    (len(scales), len(trial_ids)); column i belongs to trial_ids[i], and no
    value depends on which other trials are evaluated with it, so one trial
    is `trial_ids=(t,)`.  The streams of every trial are keyed before the
    first pass, and one INFO log line reports the trials, keyed draws and
    stacked passes.
    """
    b_link = _bounce_scenario(scenario, subseed(seed, "b-link"))
    ids = list(trial_ids)
    n = b_link.n_elements
    states = 2 if (scenario.ris_update_policy == "rerandomize_each_slot"
                   and scenario.t2 != scenario.t1) else 1
    slots = (scenario.t1, scenario.t2)[:states]
    links = link_streams(b_link, ids)
    surfaces = KeyedStreams(seed, [[f"theta/{t}/{slot}" for t in ids] for slot in slots])
    out = np.empty((3, len(scales), len(ids)))
    theta = np.empty((states, min(STALE_CHUNK, len(ids)), n), dtype=np.complex128)
    for lo in range(0, len(ids), STALE_CHUNK):
        hi = min(lo + STALE_CHUNK, len(ids))
        cols = range(lo, hi)
        blocks = draw_stack(b_link, links, cols)
        for j in range(states):
            for i, c in enumerate(cols):
                theta[j, i] = _foreign_state(surfaces[j, c], n)
        for a, scale in enumerate(scales):
            out[:, a, lo:hi] = _stacked_rates(
                scenario, b_link, blocks, theta[:, :hi - lo], scale)
    log.info("stale CSI: %d trials at %d bounce scales, %d keyed draws, %d stacked passes",
             len(ids), len(scales), links.draws + surfaces.draws,
             links.passes + surfaces.passes)
    return out[0], out[1], out[2]


def _stacked_rates(scenario: CoexScenario, b_link: Scenario, blocks, theta,
                   bounce_amp_scale: float):
    """(fresh, stale, loss) of B on a stack of trials at one bounce scale.

    `theta` holds A's surface at t1 and, when it moves, at t2.  The
    channels at all held states take one stacked SVD and water-filling,
    and both rates one stacked determinant.
    """
    p_b = scenario.net_b.tx_power
    noise = scenario.params.noise_power
    hs = np.stack([assemble_stack(b_link, *blocks, th, beta_gain=bounce_amp_scale)
                   for th in theta])
    f = waterfill_precoder(hs, p_b, noise)
    # precoders from t1 and t2 (the same one when the surface held still),
    # both used on the channel at t2
    rates = rate_with_precoder(hs[-1:], f, noise)
    stale, fresh = rates[0], rates[-1]
    loss = np.divide(fresh - stale, fresh, out=np.zeros_like(fresh),
                     where=fresh != 0.0)
    return fresh, stale, loss


@dataclass(frozen=True)
class LbtConfig:
    """Listen-before-talk sensing parameters.

    The summed sensed power is compared against `sense_threshold_dbm`.
    """

    sense_threshold_dbm: float
    backoff_slots_max: int = 8

    def __post_init__(self):
        if self.backoff_slots_max < 0:
            raise ValueError(
                f"backoff_slots_max must be >= 0, got {self.backoff_slots_max}"
            )


def lbt_decide(cfg: LbtConfig, powers_dbm) -> bool:
    """True when the summed sensed power stays below the threshold.

    `powers_dbm` is a sequence of sensed powers; an empty medium always
    clears.
    """
    total_mw = 0.0
    for power_dbm in powers_dbm:
        total_mw += 10.0 ** (power_dbm / 10.0)
    if total_mw == 0.0:
        return True
    return 10.0 * math.log10(total_mw) < cfg.sense_threshold_dbm


def _watts_to_dbm(p: float) -> float:
    return 10.0 * math.log10(p * 1e3) if p > 0.0 else -math.inf


def _own_link_spectrum(coex: CoexScenario, net: CoexNetwork, seed: int) -> np.ndarray:
    """Singular values of one network's own link, surface aligned if owned."""
    params = coex.params
    dp = coex.direct_params
    geom = coex.geometry
    if net.ris is None:
        if coex.b_direct_blocked and net is coex.net_b:
            # shadowed victim: only the bounce off A's surface, whose state
            # B does not control, so a seeded foreign draw stands in
            link = _bounce_scenario(coex, subseed(seed, f"own/{net.name}"))
            real = draw_realization(link, 0)
            th = _foreign_state(rng_from(seed, f"own-theta/{net.name}"), coex.net_a.n_elements)
            return singular_values(assemble_effective(real, th))
        los, pl = _fixed_link(geom, net.nb, net.ue, net.u_antennas, net.m_antennas, dp)
        h = gen_rician(dp, los, subseed(seed, f"direct/{net.name}"))
        h_t = math.sqrt(pl) * h
    else:
        link = Scenario(
            geometry=geom,
            m_antennas=net.m_antennas,
            n_elements=net.n_elements,
            u_antennas=net.u_antennas,
            nb_ris=params,
            ris_ue=params,
            nb_ue=dp,
            nb=net.nb,
            ris=net.ris,
            ue=net.ue,
            seed=subseed(seed, f"own/{net.name}"),
        )
        real = draw_realization(link, 0)
        aligned = np.exp(1j * _aligned_init_phases(real))
        h_t = assemble_effective(real, aligned)
    return singular_values(h_t)


def _interference_power(coex: CoexScenario, victim: CoexNetwork,
                        source: CoexNetwork) -> float:
    """Mean received power at the victim's user from the source network.

    The ground path takes the `direct_params` exponent, as the victim's own
    ground link does.  The bounce off the source's own surface adds
    incoherently, hence the factor N rather than N^2.
    """
    geom = coex.geometry
    lam = geom.wavelength
    alpha = coex.params.path_loss_exponent
    ground = coex.direct_params.path_loss_exponent
    p = path_gain(lam, geom.distance(source.nb, victim.ue), ground)
    if source.ris is not None:
        p += (
            path_gain(lam, geom.distance(source.nb, source.ris), alpha)
            * source.n_elements
            * path_gain(lam, geom.distance(source.ris, victim.ue), alpha)
        )
    return source.tx_power * p


def _sensed_sources(coex: CoexScenario, listener: CoexNetwork,
                    source: CoexNetwork):
    """Powers (dBm) a transmission presents to a listener's base station."""
    geom = coex.geometry
    lam = geom.wavelength
    alpha = coex.params.path_loss_exponent
    out = [_watts_to_dbm(source.tx_power
                         * path_gain(lam, geom.distance(source.nb, listener.nb), alpha))]
    if source.ris is not None:
        p = (source.tx_power
             * path_gain(lam, geom.distance(source.nb, source.ris), alpha)
             * source.n_elements
             * path_gain(lam, geom.distance(source.ris, listener.nb), alpha))
        out.append(_watts_to_dbm(p))
    return out


@dataclass(frozen=True, eq=False)
class LbtResult:
    airtime_a: float
    airtime_b: float
    collision_fraction: float
    mean_rate_a: float
    mean_rate_b: float


def run_lbt_sim(scenario: CoexScenario, cfg: LbtConfig, slots: int, seed: int) -> LbtResult:
    """Slotted medium access with carrier sensing and random backoff.

    Both networks are saturated.  Per slot, contenders are polled in a
    random order; each sums the power of transmissions already granted in
    the slot and defers with a uniform backoff of up to
    `backoff_slots_max` slots when the medium reads busy.  Collisions are
    slots where both networks transmit on the same frequency; mean rates
    count idle slots as zero (throughput).
    """
    if slots < 1:
        raise ValueError(f"slots must be >= 1, got {slots}")
    nets = (scenario.net_a, scenario.net_b)
    sensed = {
        (i, j): _sensed_sources(scenario, nets[i], nets[j])
        for i in range(2)
        for j in range(2)
        if i != j
    }
    inter = [
        _interference_power(scenario, nets[i], nets[1 - i]) if scenario.same_frequency
        else 0.0
        for i in range(2)
    ]
    # each own link is drawn once; a collision only adds interference noise
    noise = scenario.params.noise_power
    spectra = [_own_link_spectrum(scenario, net, seed) for net in nets]
    rate_alone = [capacity_closed_form(s, net.tx_power, noise)
                  for s, net in zip(spectra, nets)]
    rate_coll = [capacity_closed_form(s, net.tx_power, noise + x)
                 for s, net, x in zip(spectra, nets, inter)]

    rng = rng_from(seed, "lbt")
    backoff = [0, 0]
    tx_slots = [0, 0]
    collisions = 0
    rate_sum = [0.0, 0.0]
    for _ in range(slots):
        order = rng.permutation(2)
        granted = []
        for i in order:
            if backoff[i] > 0:
                backoff[i] -= 1
                continue
            if lbt_decide(cfg, [s for j in granted for s in sensed[(i, j)]]):
                granted.append(i)
            else:
                backoff[i] = int(rng.integers(0, cfg.backoff_slots_max + 1))
        collided = len(granted) == 2 and scenario.same_frequency
        if collided:
            collisions += 1
        for i in granted:
            tx_slots[i] += 1
            rate_sum[i] += rate_coll[i] if collided else rate_alone[i]
    return LbtResult(
        airtime_a=tx_slots[0] / slots,
        airtime_b=tx_slots[1] / slots,
        collision_fraction=collisions / slots,
        mean_rate_a=rate_sum[0] / slots,
        mean_rate_b=rate_sum[1] / slots,
    )


@dataclass(frozen=True)
class BandFilter:
    """Band-limiting layer in front of a surface.

    Reflection passes the layer twice, so out-of-band rejection and
    insertion loss both double on the reflected path.
    """

    per_pass_oob_attenuation_db: float
    inband_insertion_loss_db: float = 0.0
    passes_on_reflection: int = 2

    def __post_init__(self):
        if self.per_pass_oob_attenuation_db < 0.0:
            raise ValueError("per_pass_oob_attenuation_db must be >= 0")
        if self.inband_insertion_loss_db < 0.0 or not math.isfinite(self.inband_insertion_loss_db):
            raise ValueError("inband_insertion_loss_db must be finite and >= 0")
        if self.passes_on_reflection < 1:
            raise ValueError("passes_on_reflection must be >= 1")


@dataclass(frozen=True)
class FilteredPower:
    inband_out_dbm: float
    oob_out_dbm: float


def apply_band_filter(
    filt: BandFilter, inband_power_dbm: float, oob_power_dbm: float, reflective: bool
) -> FilteredPower:
    """dB budget of one traversal (or double-pass reflection) of the layer."""
    passes = filt.passes_on_reflection if reflective else 1
    inband = inband_power_dbm - filt.inband_insertion_loss_db * passes
    oob = (oob_power_dbm
           - filt.per_pass_oob_attenuation_db * passes
           - filt.inband_insertion_loss_db * passes)
    return FilteredPower(inband_out_dbm=inband, oob_out_dbm=oob)


def adjacent_rates(scenario: CoexScenario, filt: BandFilter, trial_ids, seed: int):
    """Adjacent-channel trials without and with A's surface filter.

    Requires `same_frequency` False.  Network B is out of band for A's
    surface, so the filtered bounce is attenuated by the double-pass
    budget.  One `stale_rates` call evaluates both arms on the same drawn
    channels and surface states, leaving the filter as the only
    difference.  Returns arrays (rate_no_filter, rate_with_filter,
    loss_no_filter, loss_with_filter) over `trial_ids`, where the rates
    are B's stale-CSI rates.
    """
    if scenario.same_frequency:
        raise ValueError("adjacent-channel experiment needs same_frequency=False")
    scale_db = apply_band_filter(filt, 0.0, 0.0, reflective=True).oob_out_dbm
    scale = 10.0 ** (scale_db / 20.0)
    _, stale, loss = stale_rates(scenario, trial_ids, seed, (1.0, scale))
    return stale[0], stale[1], loss[0], loss[1]
