"""Oracle tests for relay manipulation maps and attack-channel extraction."""

import re

import numpy as np
import pytest

from conftest import is_column_stochastic
from relay_sentinel import attackmodel, stochcore
from relay_sentinel.attackmodel import AttackSpec


def _u_trace(pmf, n, seed):
    rng = np.random.default_rng(seed)
    cum = np.cumsum(pmf)
    cum[-1] = 1.0
    return np.searchsorted(cum, rng.random(n), side="right")


def test_identity_attack_is_noop():
    u = np.array([0, 2, 1, 1, 0, 2])
    v = attackmodel.apply_attack(
        AttackSpec(), u, np.random.default_rng(1)
    )
    np.testing.assert_array_equal(v, u)


@pytest.mark.parametrize("gate", [None, "even"])
@pytest.mark.parametrize(
    "u, message",
    [
        # u = -1 used to read phi's last column, u = 5 to raise a bare IndexError
        ([-1, -1, -1], "u symbol -1 is outside the alphabet of size 3"),
        ([5], "u symbol 5 is outside the alphabet of size 3"),
        (np.array([0.0, 1.0]), "u symbols must be integers, got dtype float64"),
        (np.array([True, False]), "u symbols must be integers, got dtype bool"),
        (np.zeros((2, 1), int), "u trace must be one-dimensional, got shape (2, 1)"),
    ],
    ids=["negative", "past phi", "float", "bool", "2-D"],
)
def test_apply_attack_takes_relay_inputs_by_the_trace_rule(u, message, gate):
    spec = AttackSpec(np.full((3, 3), 1 / 3), gate)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        attackmodel.apply_attack(spec, u, np.random.default_rng(0))


def test_attack_spec_validation(motivating_phis):
    with pytest.raises(ValueError):
        AttackSpec(np.array([[0.5, 0.5], [0.4, 0.5]]))
    with pytest.raises(ValueError):
        AttackSpec(motivating_phis[2], "sometimes")


def test_attack_kind_is_read_off_the_fields(motivating_phis):
    phi = motivating_phis[2]
    assert AttackSpec().kind == "identity"
    assert AttackSpec(phi=phi).kind == AttackSpec(phi).kind == "iid"
    assert AttackSpec(phi=phi, gate_parity="odd").kind == "gated"
    assert AttackSpec(phi, "even").kind == "gated"
    # a kind that contradicts the fields can no longer be stated
    with pytest.raises(ValueError, match="a gated attack needs an attack matrix phi"):
        AttackSpec(gate_parity="even")
    with pytest.raises(TypeError):
        AttackSpec(kind="identity", phi=phi)


def test_iid_phi4_changed_fraction(motivating_phis):
    # matrix arithmetic: only symbols 0 and 2 can change, each w.p. 0.01,
    # and p(u=0) + p(u=2) = 1/2 under uniform binary sources -> 0.005
    u = _u_trace(np.array([0.25, 0.5, 0.25]), 100_000, seed=12)
    v = attackmodel.apply_attack(
        AttackSpec(motivating_phis[4]), u, np.random.default_rng(13)
    )
    fraction = float((v != u).mean())
    assert fraction == pytest.approx(0.005, abs=0.003)


def test_gated_attack_activity_rate(motivating_phis):
    # parity of the symbol-index sum is asymptotically fair, so the even gate
    # fires in about half the trials; inactive blocks pass through unchanged
    spec = AttackSpec(motivating_phis[2], "even")
    active = 0
    for trial in range(400):
        u = _u_trace(np.array([0.25, 0.5, 0.25]), 2000, seed=1000 + trial)
        v = attackmodel.apply_attack(spec, u, np.random.default_rng(5000 + trial))
        gate_should_fire = int(u.sum()) % 2 == 0
        if gate_should_fire:
            active += 1
            assert (v != u).any()  # phi2 flips some symbol in 2000 w.h.p.
        else:
            np.testing.assert_array_equal(v, u)
    assert abs(active / 400 - 0.5) < 0.06


def test_gated_odd_parity_complements_even(motivating_phis):
    u = np.array([0, 1, 1])  # index sum 2, even
    even = attackmodel.apply_attack(
        AttackSpec(motivating_phis[4], "even"), u, np.random.default_rng(2)
    )
    odd = attackmodel.apply_attack(
        AttackSpec(motivating_phis[4], "odd"), u, np.random.default_rng(2)
    )
    np.testing.assert_array_equal(odd, u)  # gate closed
    assert even.shape == u.shape  # gate open: block went through the iid map


def test_extract_identity():
    u = np.array([0, 1, 2, 1])
    ac = attackmodel.extract_attack_channel(u, u.copy(), u_size=3)
    np.testing.assert_allclose(ac.phi_n, np.eye(3), atol=1e-15)
    np.testing.assert_array_equal(ac.counts, np.diag([1, 2, 1]))


def test_extract_hand_counted():
    u = np.array([0, 1, 0, 1])
    v = np.array([1, 1, 0, 1])
    ac = attackmodel.extract_attack_channel(u, v, u_size=2)
    np.testing.assert_array_equal(ac.counts, [[1, 0], [1, 2]])
    np.testing.assert_allclose(ac.phi_n[:, 0], [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(ac.phi_n[:, 1], [0.0, 1.0], atol=1e-15)


def test_extract_unobserved_columns_are_identity():
    u = np.zeros(10, dtype=int)
    v = np.zeros(10, dtype=int)
    ac = attackmodel.extract_attack_channel(u, v, u_size=3)
    np.testing.assert_allclose(ac.phi_n, np.eye(3), atol=1e-15)
    np.testing.assert_array_equal(ac.counts, [[10, 0, 0], [0, 0, 0], [0, 0, 0]])


def test_attack_channel_from_counts_reads_the_relay_table_alone():
    # #(v=i, u=j): u = 2 never occurs, so its column is the identity's
    counts = np.array([[3, 0, 0], [1, 2, 0], [0, 2, 0]])
    ac = attackmodel.AttackChannel.from_counts(counts)
    np.testing.assert_array_equal(ac.phi_n, [[0.75, 0.0, 0.0], [0.25, 0.5, 0.0], [0.0, 0.5, 1.0]])
    assert ac.counts is counts
    u, v = np.array([0, 0, 0, 0, 1, 1, 1, 1]), np.array([0, 0, 0, 1, 1, 1, 2, 2])
    assert attackmodel.extract_attack_channel(u, v, u_size=3) == ac


@pytest.mark.parametrize(
    "counts, message",
    [
        # a negative cell used to give phi_n entries of -1 and 2
        ([[3, -1, 0], [0, 2, 0], [0, 0, 1]], r"^counts\[0\]\[1\]: entry -1 is negative$"),
        (np.eye(3), "^counts must be integers, got dtype float64$"),
        (np.eye(3, dtype=bool), "^counts must be integers, got dtype bool$"),
        (np.zeros((3, 3), int), "^counts hold no observation$"),
        (np.ones((2, 3), int), r"^counts have shape \(2, 3\), expected \(2, 2\)$"),
        # a scalar used to raise TypeError from len()
        (5, r"^counts have shape \(\), expected \(1, 1\)$"),
        (np.int64(3), r"^counts have shape \(\), expected \(1, 1\)$"),
    ],
    ids=["negative", "float", "bool", "empty", "shape", "int", "numpy int"],
)
def test_attack_channel_from_counts_rejects_a_bad_count_table(counts, message):
    with pytest.raises(ValueError, match=message):
        attackmodel.AttackChannel.from_counts(counts)


def test_extract_length_mismatch():
    with pytest.raises(ValueError):
        attackmodel.extract_attack_channel(np.array([0, 1]), np.array([0]), u_size=2)


@pytest.mark.parametrize(
    "u, v, message",
    [
        # u = 2 used to be counted as a 0 -> 1 substitution, in cell (1, 0)
        ([0, 2], [0, 0], "u symbol 2 is outside the alphabet of size 2"),
        # v = 5 used to fail in NumPy's reshape, u = -1 in bincount
        ([0, 1], [0, 5], "v symbol 5 is outside the alphabet of size 2"),
        ([0, -1], [0, 1], "u symbol -1 is outside the alphabet of size 2"),
    ],
)
def test_extract_rejects_relay_symbols_outside_the_alphabet(u, v, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        attackmodel.extract_attack_channel(u, v, u_size=2)


def test_extract_needs_the_alphabet_size():
    with pytest.raises(TypeError):
        attackmodel.extract_attack_channel(np.array([0, 1]), np.array([1, 0]))


def test_truth_statistic_values(motivating_phis):
    identity = attackmodel.extract_attack_channel(
        np.array([0, 1, 2]), np.array([0, 1, 2]), u_size=3
    )
    assert attackmodel.truth_statistic(identity) == 0.0

    for idx, expected in ((2, 0.06), (4, 0.04)):
        ac = attackmodel.AttackChannel(
            phi_n=motivating_phis[idx],
            counts=np.rint(1000 * motivating_phis[idx]).astype(np.int64),
        )
        assert attackmodel.truth_statistic(ac) == pytest.approx(
            expected, abs=1e-12
        )


def test_extract_always_column_stochastic():
    rng = np.random.default_rng(31)
    for _ in range(100):
        size = int(rng.integers(2, 6))
        n = int(rng.integers(1, 50))
        u = rng.integers(0, size, n)
        v = rng.integers(0, size, n)
        ac = attackmodel.extract_attack_channel(u, v, u_size=size)
        assert is_column_stochastic(ac.phi_n, 1e-12)


def test_iid_attack_channel_converges(motivating_phis):
    phi = motivating_phis[2]
    hits = 0
    for trial in range(100):
        u = _u_trace(np.array([0.25, 0.5, 0.25]), 100_000, seed=7000 + trial)
        v = attackmodel.apply_attack(
            AttackSpec(phi), u, np.random.default_rng(9000 + trial)
        )
        ac = attackmodel.extract_attack_channel(u, v, u_size=3)
        if stochcore.l1_norm(ac.phi_n - phi) < 0.05:
            hits += 1
    assert hits >= 95


def test_gated_inactive_block_extracts_exact_identity(motivating_phis):
    spec = AttackSpec(motivating_phis[2], "even")
    u = np.array([0, 0, 1, 1, 1])  # index sum 3, odd: gate stays closed
    v = attackmodel.apply_attack(spec, u, np.random.default_rng(88))
    ac = attackmodel.extract_attack_channel(u, v, u_size=3)
    np.testing.assert_array_equal(ac.phi_n, np.eye(3))


def test_counter_example_changed_fraction_matches_matrix(counter_phi2):
    # expected change rate derived from the shipped matrix itself:
    # sum_j p(u_j) (1 - phi[j, j]) under the ternary-adder u distribution
    pmf = np.array([1.0, 2.0, 3.0, 2.0, 1.0]) / 9.0
    expected = float(pmf @ (1.0 - np.diag(counter_phi2)))
    u = _u_trace(pmf, 200_000, seed=41)
    v = attackmodel.apply_attack(
        AttackSpec(counter_phi2), u, np.random.default_rng(43)
    )
    fraction = float((v != u).mean())
    assert fraction == pytest.approx(expected, abs=0.01)
