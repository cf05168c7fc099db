"""Coexistence of two operators when one controls a reflective surface.

Network B's effective channel bounces off network A's surface, so A's
reconfigurations move B's channel between B's measurement slot t1 and its
transmit slot t2.  `stale_rates` quantifies that stale-CSI loss, at any
set of bounce scales; `lbt_runs` runs slotted listen-before-talk medium
access simulations with omnidirectional energy sensing; and
`filter_budget_db` gives the out-of-band budget of a band filter at the
surface, whose amplitude scale the adjacent-band runner hands to
`stale_rates`.  One `CoexScenario` describes both networks, with fixed
roles: A owns the surface, B owns none; it holds the links' statistics
and, apart from them, the noise power at the users' receivers.

Every draw is keyed on the run seed, from a fixed number of generators
per run, and goes through `channel.draw_links`: the stale-CSI trials are
consecutive rows of one generator for B's channel blocks and one for A's
surface states, and the LBT runs are consecutive rows of one generator
for the own links, one for a shadowed B's surface state and one for the
access draws."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelParams,
    Geometry,
    Scenario,
    assemble_stack,
    draw_links,
    path_gain,
    surface_states,
)
from .numkernel import (
    capacity_closed_form,
    rate_with_precoder,
    singular_values,
    waterfill_precoder,
)
from .ris import aligned_phases
from .seeding import rng_from

log = logging.getLogger(__name__)

UPDATE_POLICIES = ("static", "rerandomize_each_slot", "frozen_during_foreign_slot")


@dataclass(frozen=True, eq=False)
class CoexScenario:
    """Two networks in one geometry on one frequency.

    Network A serves `ue_a` from `nb_a` and owns the surface `ris_a` of
    `n_elements` elements; network B serves `ue_b` from `nb_b` and owns
    no surface.  Both base stations have `m_antennas` antennas and both
    users `u_antennas`.  `params` describes the reflected segments and
    `direct_params` the base-station/user ground links, which usually
    carry a higher path-loss exponent; both users' receivers see the noise
    power `noise_power`.  A's surface moves per `policy`
    between B's measurement slot `t1` and its transmit slot `t2`.
    `b_direct_blocked` obstructs B's ground path entirely, leaving B
    connected only through the bounce off A's surface (the victim-in-shadow
    case).
    """

    geometry: Geometry
    params: ChannelParams
    direct_params: ChannelParams
    noise_power: float
    m_antennas: int
    u_antennas: int
    n_elements: int
    tx_power_a: float
    tx_power_b: float
    t1: int
    t2: int
    policy: str
    b_direct_blocked: bool

    def __post_init__(self):
        if self.t1 > self.t2:
            raise ValueError(f"need t1 <= t2, got t1={self.t1}, t2={self.t2}")
        if self.policy not in UPDATE_POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; choose one of {UPDATE_POLICIES}")
        if not (self.noise_power > 0.0 and math.isfinite(self.noise_power)):
            raise ValueError(f"noise_power must be positive, got {self.noise_power}")

    def link_params(self, direct: bool) -> dict:
        """ChannelParams of a network's links by `channel.link_layout` name,
        the ground path's None unless `direct`."""
        return {"nb_ris": self.params, "ris_ue": self.params,
                "nb_ue": self.direct_params if direct else None}


def _surface_link(coex: CoexScenario, net: str, direct: bool) -> Scenario:
    """Network `net`'s ("a" or "b") link through A's surface, plus its
    ground path when `direct`."""
    return Scenario(
        geometry=coex.geometry,
        m_antennas=coex.m_antennas,
        n_elements=coex.n_elements,
        u_antennas=coex.u_antennas,
        **coex.link_params(direct),
        nb=f"nb_{net}",
        ris="ris_a",
        ue=f"ue_{net}",
    )


#: trials per stacked pass of `stale_rates`; bounds the memory of the
#: stacks without changing any result, since trials are independent
STALE_CHUNK = 32


def stale_rates(scenario: CoexScenario, trials: int, seed: int, scales=(1.0,)):
    """Network B's stale-CSI rates over many trials in stacked passes.

    The one stale-CSI entry point, for the coexist and adjacent runners.
    B water-fills its precoder on the effective channel at t1 and transmits
    on the channel at t2, where A's surface has evolved per the update
    policy.  Each scale in `scales` multiplies the amplitude of the bounce
    off A's surface (the adjacent-band filter uses this).

    Trial t's channel is row t of the generator `rng_from(seed,
    "stale/normals")` and its surface states row t of `rng_from(seed,
    "stale/uniforms")`, A's surface at t1, then at t2 when it moves, both
    through one `draw_links` call per chunk; every scale is evaluated on
    them.  Under "static" and "frozen_during_foreign_slot", or when
    t1 == t2, the t2 state is the t1 state, so the stale rate equals the
    fresh one and the loss is exactly zero.  A trial with zero fresh rate
    has zero loss.

    Returns (fresh, stale, loss) arrays of shape (len(scales), trials);
    column t belongs to trial t, and depends on the seed and t alone, so
    a run of n trials is the first n columns of a longer run.  One INFO
    log line reports the trials, bounce scales and the two generators.
    """
    b_link = _surface_link(scenario, "b", not scenario.b_direct_blocked)
    states = 2 if (scenario.policy == "rerandomize_each_slot"
                   and scenario.t2 != scenario.t1) else 1
    normals, uniforms = rng_from(seed, "stale/normals"), rng_from(seed, "stale/uniforms")
    n = scenario.n_elements
    out = np.empty((3, len(scales), trials))
    for lo in range(0, trials, STALE_CHUNK):
        hi = min(lo + STALE_CHUNK, trials)
        blocks, drawn = draw_links(b_link.links(), hi - lo, normals, uniforms, states * n)
        # (states, trials, N): A's surface at t1, then at t2 when it moves
        theta = surface_states(drawn.reshape(hi - lo, states, n).transpose(1, 0, 2))
        for a, scale in enumerate(scales):
            out[:, a, lo:hi] = _stacked_rates(scenario, b_link, blocks, theta, scale)
    log.info("stale CSI: %d trials at %d bounce scales, 2 streams", trials, len(scales))
    return out[0], out[1], out[2]


def _stacked_rates(scenario: CoexScenario, b_link: Scenario, blocks, theta,
                   bounce_amp_scale: float):
    """(fresh, stale, loss) of B on a stack of trials at one bounce scale.

    `theta` holds A's surface at t1 and, when it moves, at t2.  The
    channels at all held states take one stacked SVD and water-filling,
    and both rates one stacked determinant.
    """
    p_b = scenario.tx_power_b
    noise = scenario.noise_power
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


def budgets(coex: CoexScenario, threshold_dbm: float):
    """Carrier-sensing outcomes and interference powers of networks A and B.

    Returns (clear, interference), each a pair ordered (A, B).  `clear[i]`
    tells whether network i's base station reads the medium clear while
    the other network transmits: the powers it senses, converted to dBm
    and summed in mW, stay below `threshold_dbm`, or sum to zero.
    `interference[i]` is the mean power the other network's transmission
    adds at network i's user.  A transmission reaches a station or user
    over the ground path and, from A, also over the incoherent bounce off
    A's surface, hence the factor N rather than N^2.  Sensing takes the
    reflected exponent on the ground path, interference the direct one.
    """
    geom = coex.geometry
    lam = geom.wavelength
    alpha = coex.params.path_loss_exponent
    ground = coex.direct_params.path_loss_exponent
    tx_a, tx_b, n = coex.tx_power_a, coex.tx_power_b, coex.n_elements

    def gain(frm, to, exponent):
        return path_gain(lam, geom.distance(frm, to), exponent)

    sensed = (
        (tx_b * gain("nb_b", "nb_a", alpha),),
        (tx_a * gain("nb_a", "nb_b", alpha),
         tx_a * gain("nb_a", "ris_a", alpha) * n * gain("ris_a", "nb_b", alpha)),
    )
    clear = []
    for powers in sensed:
        total_mw = 0.0
        for p in powers:
            if p > 0.0:
                power_dbm = 10.0 * math.log10(p * 1e3)
                total_mw += 10.0 ** (power_dbm / 10.0)
        clear.append(total_mw == 0.0 or 10.0 * math.log10(total_mw) < threshold_dbm)
    interference = (
        tx_b * gain("nb_b", "ue_a", ground),
        tx_a * (gain("nb_a", "ue_b", ground)
                + gain("nb_a", "ris_a", alpha) * n * gain("ris_a", "ue_b", alpha)),
    )
    return tuple(clear), interference


def _own_spectra(coex: CoexScenario, trials: int, seed: int):
    """Singular values of network A's and network B's own links in
    `trials` runs, (2, trials, min(U, M)), from one stacked SVD.

    Run t's blocks are row t of the generator `rng_from(seed,
    "lbt/normals")`, A's, then B's, both from `_surface_link`.  A's link
    is its aligned surface plus its ground path.  B's link is its ground
    path; a shadowed B's link is the bounce off A's surface, whose state B
    does not control: row t of `rng_from(seed, "lbt/uniforms")`, seeded
    only then.
    """
    shadowed = coex.b_direct_blocked
    link_a = _surface_link(coex, "a", True)
    link_b = _surface_link(coex, "b", not shadowed)
    # B's own link: its two hops through A's surface, or its ground path
    links = link_a.links() + (link_b.links()[:2] if shadowed else link_b.links()[2:])
    normals = rng_from(seed, "lbt/normals")
    uniforms = rng_from(seed, "lbt/uniforms") if shadowed else None
    stacks, drawn = draw_links(links, trials, normals, uniforms,
                               coex.n_elements if shadowed else 0)
    theta = np.exp(1j * aligned_phases(*stacks[:3], gains=link_a))
    h_a = assemble_stack(link_a, *stacks[:3], theta)
    if shadowed:
        h_b = assemble_stack(link_b, *stacks[3:], None, surface_states(drawn))
    else:
        h_b = math.sqrt(link_b.pl_nb_ue) * stacks[3]
    return singular_values(np.stack([h_a, h_b]))


def lbt_runs(scenario: CoexScenario, threshold_dbm: float, backoff_max: int,
             slots: int, trials: int, seed: int):
    """`trials` runs of `slots` slots of medium access with carrier sensing
    and random backoff.

    Both networks are saturated.  Per slot, contenders are polled in a
    random order; each senses the transmissions already granted in the
    slot against `threshold_dbm` and defers with a uniform backoff of up
    to `backoff_max` slots when the medium reads busy.  Collisions are
    slots where both networks transmit, at each one's rate with the
    other's interference added to the noise; mean rates count idle slots
    as zero (throughput).

    Every run's own links are drawn once, in one pass (see
    `_own_spectra`).  Run t's access draws are the t-th pair of calls on
    `rng_from(seed, "lbt/access")`: `random(slots)`, whose value s below
    0.5 polls A first in slot s, and `integers(0, backoff_max + 1,
    size=slots)`, whose value s backs off the network that defers in slot
    s, only ever the second one polled.  The slot loop calls no generator,
    and run t depends on the seed and t alone.

    Returns airtime_a, airtime_b, collision_fraction, mean_rate_a and
    mean_rate_b, a (trials,) array each.  One INFO log line reports the
    runs, slots and generators.
    """
    if slots < 1:
        raise ValueError(f"slots must be >= 1, got {slots}")
    # within a slot the only transmission a network can sense is the other
    # network's, so each network's sensing outcome is decided once
    clear, inter = budgets(scenario, threshold_dbm)
    noise = scenario.noise_power
    spectra = _own_spectra(scenario, trials, seed)
    tx = (scenario.tx_power_a, scenario.tx_power_b)
    alone = [capacity_closed_form(s, p, noise) for s, p in zip(spectra, tx)]
    collided = [capacity_closed_form(s, p, noise + x) for s, p, x in zip(spectra, tx, inter)]

    access = rng_from(seed, "lbt/access")
    counts = np.empty((3, trials))  # slots A sends in, slots B sends in, collisions
    for t in range(trials):
        a_first = (access.random(slots) < 0.5).tolist()
        waits = access.integers(0, backoff_max + 1, size=slots).tolist()
        backoff, sent = [0, 0], [0, 0, 0]
        for first, wait in zip(a_first, waits):
            granted = []
            for i in (0, 1) if first else (1, 0):
                if backoff[i] > 0:
                    backoff[i] -= 1
                elif not granted or clear[i]:
                    granted.append(i)
                else:
                    backoff[i] = wait
            for i in granted:
                sent[i] += 1
            sent[2] += len(granted) == 2
        counts[:, t] = sent
    coll = counts[2]
    rates = [((counts[i] - coll) * alone[i] + coll * collided[i]) / slots for i in range(2)]
    log.info("lbt: %d trials of %d slots, %d streams", trials, slots,
             3 if scenario.b_direct_blocked else 2)
    return counts[0] / slots, counts[1] / slots, coll / slots, rates[0], rates[1]


def filter_budget_db(oob_db: float, insertion_db: float, passes: int) -> float:
    """Out-of-band level, in dB relative to the input, after `passes`
    traversals of a band-limiting layer in front of a surface.

    Each pass costs `oob_db` of out-of-band rejection and `insertion_db`
    of insertion loss; a reflection traverses the layer twice.  A
    lossless layer gives +0.0 dB.
    """
    return 0.0 - oob_db * passes - insertion_db * passes
