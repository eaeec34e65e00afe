"""Relay manipulation maps and ground-truth attack-channel extraction.

Three attack families are shipped:

- identity: the honest relay, v = u;
- iid: each symbol is independently resampled from column u_n of a
  column-stochastic matrix phi;
- gated: the whole block is either passed through untouched or manipulated
  i.i.d., depending on whether the parity of the sum of (zero-based) symbol
  indices over the block matches the gate. The block-level decision is
  causal because the relay observes the full uplink block before it starts
  broadcasting.

The ground-truth attack channel is read off the relay's counts
#(v=i, u=j) alone (`AttackChannel.from_counts`): the conditional frequency
matrix phi_n[i, j] = #(v=i, u=j) / #(u=j), kept with its counts. Columns
of symbols that never occurred carry no evidence and default to identity
columns. `extract_attack_channel` counts a (u, v) trace pair first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channelmodel import sample_trace
from .stochcore import (
    joint_counts,
    l1_norm,
    validate_column_stochastic,
    validate_count_table,
    validate_trace,
    value_eq,
)

__all__ = [
    "AttackSpec",
    "AttackChannel",
    "apply_attack",
    "extract_attack_channel",
    "truth_statistic",
]

_PARITIES = ("even", "odd")


@dataclass(frozen=True)
class AttackSpec:
    """One of the shipped relay strategies: ``AttackSpec()`` is the identity,
    ``AttackSpec(phi)`` the iid attack and ``AttackSpec(phi, gate_parity)``
    the gated one; ``kind`` names which.
    """

    phi: np.ndarray | None = None
    gate_parity: str | None = None

    __eq__ = value_eq

    def __post_init__(self):
        if self.gate_parity not in (None, *_PARITIES):
            raise ValueError(f"gate parity must be one of {_PARITIES}")
        if self.phi is None:
            if self.gate_parity is not None:
                raise ValueError("a gated attack needs an attack matrix phi")
            return
        phi = validate_column_stochastic(self.phi, "phi")
        if phi.shape[0] != phi.shape[1]:
            raise ValueError("attack matrix must be square")
        object.__setattr__(self, "phi", phi)

    @property
    def kind(self) -> str:
        if self.phi is None:
            return "identity"
        return "iid" if self.gate_parity is None else "gated"


@dataclass(frozen=True)
class AttackChannel:
    """Empirical |U| x |U| attack channel and its counts #(v=i, u=j)."""

    phi_n: np.ndarray
    counts: np.ndarray

    __eq__ = value_eq

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> AttackChannel:
        """Conditional frequency of v given u in the square counts #(v=i, u=j)
        (`validate_count_table`); identity columns where u never occurred."""
        side = np.shape(counts)[:1] or (1,)  # a scalar is held to the 1 x 1 shape
        counts = validate_count_table(counts, side * 2)
        totals = counts.sum(axis=0)
        observed = totals > 0
        phi_n = np.eye(counts.shape[0])
        phi_n[:, observed] = counts[:, observed] / totals[observed]
        return cls(phi_n=phi_n, counts=counts)


def apply_attack(
    spec: AttackSpec, u_trace: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Map a relay-input block to the relay-output block; a map phi takes
    only relay inputs `validate_trace` accepts against its size."""
    u_trace = np.asarray(u_trace)
    if u_trace.size == 0:
        raise ValueError("empty relay-input trace")
    if spec.phi is None:
        return u_trace.copy()
    validate_trace(u_trace, "u", spec.phi.shape[0])
    if spec.gate_parity is not None:
        # the parity of the sum is the low bit of the XOR: no widening pass
        parity = _PARITIES[int(np.bitwise_xor.reduce(u_trace)) & 1]
        if parity != spec.gate_parity:
            return u_trace.copy()
    return sample_trace(spec.phi, u_trace.size, rng, u_trace)


def extract_attack_channel(
    u_trace: np.ndarray, v_trace: np.ndarray, u_size: int
) -> AttackChannel:
    """`AttackChannel.from_counts` of the (u, v) trace pair's counts."""
    counts = joint_counts((v_trace, u_trace), (u_size, u_size), ("v", "u"))
    return AttackChannel.from_counts(counts)


def truth_statistic(ac: AttackChannel) -> float:
    """Entrywise L1 distance of the empirical attack channel from identity."""
    return l1_norm(ac.phi_n - np.eye(ac.phi_n.shape[0]))
