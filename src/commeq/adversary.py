"""Adversarial reward streams that force type-dependent play.

The instance has two actions whose rewards always sum to one.  Half the types
follow block-constant bit patterns (one pattern per type, all patterns
present, randomly assigned); the other half flip independent fair coins every
round.  Any learner is measured against this stream single-player with a
uniform type prior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDims, BadInput, EnumerationTooLarge
from .game import open_output
from .learners import TypewiseSwapLearner, UntruthfulSwapLearner
from .regret import (RegretLedger, accumulate, block_rounds, untruthful_bound,
                     untruthful_regret)

LEARNERS = ("untruthful", "typewise", "oracle", "type-blind")
STREAM_CAP = 2**24               # T x 2^(B+1) (round, type) cells, 16 bytes each
EDGE_TOL = 1e-9                  # slack of the edge inequalities


@dataclass(frozen=True)
class LowerBoundInstance:
    blocks: int                  # B
    horizon: int                 # T
    block_len: int               # L = T / B
    patterns: np.ndarray         # (2^B, B) bits: block pattern of each structured type
    coin_flips: np.ndarray       # (2^B, T) bits for the i.i.d. types
    rewards: np.ndarray          # (T, 2^(B+1), 2) reward of each action, built once

    @property
    def reward_a0(self) -> np.ndarray:
        """(T, 2^(B+1)) reward of the first action."""
        return self.rewards[:, :, 0]

    @property
    def num_types(self) -> int:
        return 2 ** (self.blocks + 1)

    @property
    def alpha0_type(self) -> int:
        """The structured type whose first-action reward is 1 in every round."""
        return int(np.flatnonzero((self.patterns == 1).all(axis=1))[0])

    @property
    def alpha1_type(self) -> int:
        """The structured type whose second-action reward is 1 in every round."""
        return int(np.flatnonzero((self.patterns == 0).all(axis=1))[0])

    def reward(self, t: int) -> np.ndarray:
        """Reward matrix (types x 2) for round t (1-based), a read-only view."""
        return self.rewards[t - 1]


def build_instance(blocks: int, horizon: int, seed: int) -> LowerBoundInstance:
    """The seeded instance; any integer seed is taken modulo 2^64, as in
    ``dynamics``, so a negative one names a stream too."""
    b, t = int(blocks), int(horizon)
    if b < 1 or t < 1 or t % b != 0:
        raise BadDims("need blocks >= 1 and a horizon divisible by the block count")
    if b + 1 >= STREAM_CAP.bit_length() or t * 2 ** (b + 1) > STREAM_CAP:
        raise EnumerationTooLarge(f"a stream of T = {t} rounds and 2^{b + 1} types "
                                  f"exceeds the cap of {STREAM_CAP} (round, type) cells")
    half = 2 ** b
    rng = np.random.Generator(np.random.Philox(key=np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)))
    all_patterns = ((np.arange(half)[:, None] >> np.arange(b)[None, ::-1]) & 1).astype(np.int8)
    patterns = all_patterns[rng.permutation(half)]
    coin_flips = rng.integers(0, 2, size=(half, t), dtype=np.int8)
    block_len = t // b
    block_of_round = np.repeat(np.arange(b), block_len)
    rewards = np.empty((t, 2 * half, 2))
    rewards[:, :half, 0] = patterns[:, block_of_round].T      # structured types
    rewards[:, half:, 0] = coin_flips.T                       # coin-flip types
    np.subtract(1.0, rewards[:, :, 0], out=rewards[:, :, 1])
    rewards.flags.writeable = False
    return LowerBoundInstance(b, t, block_len, patterns, coin_flips, rewards)


def check_instance(inst: LowerBoundInstance) -> None:
    """Machine-check block constancy, the flip relation, and bijectivity."""
    half = 2 ** inst.blocks
    seen = {tuple(row) for row in inst.patterns}
    if len(seen) != half:
        raise BadInput("pattern assignment is not a bijection")
    for b in range(inst.blocks):
        sl = inst.reward_a0[b * inst.block_len:(b + 1) * inst.block_len, :half]
        if not (sl == sl[0]).all():
            raise BadInput(f"structured rewards vary inside block {b}")
        if not (sl[0] == inst.patterns[:, b]).all():
            raise BadInput(f"block {b} does not match the assigned patterns")
    # the flip relation holds by construction of reward(); spot check one round
    r = inst.reward(1)
    if not np.allclose(r.sum(axis=1), 1.0):
        raise BadInput("action rewards do not sum to one")


@dataclass(frozen=True)
class ExperimentResult:
    learner: str
    regret: float
    bound: float
    achieved_reward: float
    stay_mass_alpha0: float      # sum_t pi^t(alpha0_type; alpha_0)
    stay_mass_alpha1: float      # sum_t pi^t(alpha1_type; alpha_1)
    edge_lower_bound: float      # T - |Theta| * regret
    horizon: int
    num_types: int

    def edge_inequalities_hold(self) -> bool:
        """Both constant-reward types spent almost all mass on their winning action."""
        floor = self.edge_lower_bound - EDGE_TOL
        return (self.stay_mass_alpha0 >= floor
                and self.stay_mass_alpha1 >= floor)

    def to_json_dict(self) -> dict:
        return {
            "learner": self.learner,
            "untruthful_regret": self.regret,
            "upper_bound": self.bound,
            "achieved_reward": self.achieved_reward,
            "stay_mass_alpha0": self.stay_mass_alpha0,
            "stay_mass_alpha1": self.stay_mass_alpha1,
            "edge_lower_bound": self.edge_lower_bound,
            "edge_inequalities_hold": self.edge_inequalities_hold(),
            "horizon": self.horizon,
            "num_types": self.num_types,
        }


def run_experiment(inst: LowerBoundInstance, learner: str = "untruthful") -> ExperimentResult:
    """Drive a learner on the stream and account its untruthful swap regret.

    Every shipped learner is deterministic, so the run takes no seed.
    "oracle" (clairvoyant per-round best response) and "type-blind" (always
    uniform) are calibration baselines.
    """
    if learner not in LEARNERS:
        raise BadInput(f"unknown learner {learner!r}")
    k = inst.num_types
    rho = np.full(k, 1.0 / k)
    state = None
    if learner == "untruthful":
        state = UntruthfulSwapLearner(rho, 2, inst.horizon)
    elif learner == "typewise":
        state = TypewiseSwapLearner(rho, 2)
    ledger = RegretLedger.create(rho, 2)
    block = block_rounds(ledger)
    prev_u = None
    for lo in range(0, inst.horizon, block):
        us = inst.rewards[lo:lo + block]
        if learner == "oracle":
            xs = (us.argmax(axis=2)[..., None] == np.arange(2)).astype(float)
        elif learner == "type-blind":
            xs = np.full(us.shape, 0.5)
        else:
            xs = np.empty(us.shape)
            for s, u in enumerate(us):
                xs[s] = state.step(prev_u)
                prev_u = u
        accumulate(ledger, xs, us)
    regret = untruthful_regret(ledger)
    bound = untruthful_bound(inst.horizon, k, 2)
    # each edge type's winning action pays 1 every round and rho = 2^-(B+1) scales
    # exactly, so k times its diagonal cell is the stay mass summed round by round
    c, a0, a1 = ledger.cross, inst.alpha0_type, inst.alpha1_type
    return ExperimentResult(learner, regret, bound, ledger.alg_reward,
                            float(k * c[a0, a0, 0, 0]), float(k * c[a1, a1, 1, 1]),
                            inst.horizon - k * regret, inst.horizon, k)


def write_stream_csv(path: str, inst: LowerBoundInstance) -> None:
    with open_output(path) as fh:
        fh.write("t,theta,reward_a0\n")
        for t in range(inst.horizon):
            for theta in range(inst.num_types):
                fh.write(f"{t + 1},{theta},{inst.reward_a0[t, theta]:.0f}\n")
