"""Oracle tests for stochastic-matrix primitives, validators and channel constants.

Expected values are hand-derived (noted inline) and frozen before the
implementation existed.
"""

import re

import numpy as np
import pytest

from conftest import assert_frozen, is_column_stochastic
import relay_sentinel
from relay_sentinel import (
    AttackSpec,
    DetectorConfig,
    MacModel,
    Scenario,
    certify,
    channelmodel,
    check_algorithm1,
    dpv_search_algorithm2,
    estimate_attack,
    find_witness,
    g_mu_residual,
    stochcore,
)


def test_l1_norm_zero_matrix():
    assert stochcore.l1_norm(np.zeros((3, 4))) == 0.0


def test_l1_norm_identity_minus_phi2(motivating_phis):
    # hand sum: 3 diagonal deficits of 0.01 plus 6 off-diagonals of 0.005
    value = stochcore.l1_norm(np.eye(3) - motivating_phis[2])
    assert value == pytest.approx(0.06, abs=1e-12)


def test_l1_norm_vector():
    assert stochcore.l1_norm(np.array([1.0, -1.0, 1.0]) / 3.0) == pytest.approx(
        1.0, abs=1e-12
    )


def test_is_column_stochastic(motivating_a):
    assert is_column_stochastic(np.eye(4), 1e-9)
    assert is_column_stochastic(motivating_a, 1e-9)
    bad = np.array([[1.01, 0.0], [-0.01, 1.0]])
    assert not is_column_stochastic(bad, 1e-9)
    # columns must sum to one, not just have entries in range
    assert not is_column_stochastic(np.full((2, 2), 0.4), 1e-9)


def test_channel_constants_motivating(motivating_a):
    c = stochcore.channel_constants(motivating_a, 3)
    assert c.a_big_min == pytest.approx(0.5, abs=1e-12)
    assert c.a_min == pytest.approx(1.0 / 15.0, abs=1e-12)
    assert c.b_min == pytest.approx(1.0 / 12.0, abs=1e-12)


def test_channel_constants_identity():
    c = stochcore.channel_constants(np.eye(2), 2)
    assert c.a_big_min == pytest.approx(1.0, abs=1e-12)
    assert c.a_min == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert c.b_min == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_channel_constants_higher_order(higher_a):
    # row sums (1/3, 2/3, 1, 2/3, 1/3)
    c = stochcore.channel_constants(higher_a, 4)
    assert c.a_big_min == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert c.a_min == pytest.approx(1.0 / 50.0, abs=1e-12)
    assert c.b_min == pytest.approx(1.0 / 25.0, abs=1e-12)


def test_channel_constants_rejects_zero_row():
    bad = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        stochcore.channel_constants(bad, 2)


def test_norm_trace_identity_random():
    rng = np.random.default_rng(20260816)
    for _ in range(1000):
        u = int(rng.integers(2, 7))
        phi = rng.dirichlet(np.ones(u), size=u).T
        lhs = stochcore.l1_norm(phi - np.eye(u))
        rhs = 2.0 * (u - np.trace(phi))
        assert abs(lhs - rhs) <= 1e-12


def test_channel_constants_bounds_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        u = int(rng.integers(2, 7))
        x1 = int(rng.integers(2, 7))
        a = rng.dirichlet(np.ones(u), size=x1).T
        c = stochcore.channel_constants(a, int(rng.integers(2, 7)))
        assert c.a_min < c.a_big_min
        assert c.a_min * u < 1.0


# ---------- validators ----------


def test_validators_return_float_arrays_of_valid_input(motivating_a):
    p = stochcore.validate_pmf([1, 0], "p")
    assert p.dtype == float and p.tolist() == [1.0, 0.0]
    m = stochcore.validate_column_stochastic(motivating_a.tolist(), "A")
    assert m.dtype == float and np.array_equal(m, motivating_a)
    # within DEFAULT_TOL of a probability object is accepted
    assert stochcore.validate_pmf([0.5 + 4e-10, 0.5], "p")[0] == 0.5 + 4e-10
    stochcore.validate_column_stochastic([[-4e-10, 1.0], [1.0, 0.0]], "B")


@pytest.mark.parametrize(
    "value, message",
    [
        ([float("nan"), 1.0], r"^p1\[0\]: entry nan is not finite$"),
        ([0.5, float("inf")], r"^p1\[1\]: entry inf is not finite$"),
        ([-float("inf"), 1.0], r"^p1\[0\]: entry -inf is not finite$"),
        ([1.1, -0.1], r"^p1\[1\]: entry -0.1 is negative$"),
        (["a", "b"], r"^p1: entries must be numbers$"),
        ([None, 1.0], r"^p1: entries must be numbers$"),
        ([], r"^p1: expected a non-empty list"),
        ([[0.5, 0.5]], r"^p1: expected a non-empty list"),
        ([0.5, 0.5 + 5e-7], r"^p1: entries sum to 1.0000005, expected 1$"),
    ],
)
def test_validate_pmf_names_the_bad_entry(value, message):
    with pytest.raises(ValueError, match=message):
        stochcore.validate_pmf(value, "p1")


@pytest.mark.parametrize(
    "value, message",
    [
        ([[1.0, 0.0], [0.0, float("nan")]], r"^B\[1\]\[1\]: entry nan is not finite$"),
        ([[1.0, float("inf")], [0.0, 1.0]], r"^B\[0\]\[1\]: entry inf is not finite$"),
        ([[1.0, 1.2], [0.0, -0.2]], r"^B\[1\]\[1\]: entry -0.2 is negative$"),
        ([[1.0, "x"], [0.0, 1.0]], r"^B: entries must be numbers$"),
        ([[1.0, 0.0], [0.0]], r"^B: expected a non-empty list of equal-length rows$"),
        ([1.0, 0.0], r"^B: expected a non-empty list of equal-length rows$"),
        ([[]], r"^B: expected a non-empty list of equal-length rows$"),
        ([[1.0, 0.5], [0.0, 0.4]], r"^B\[\.\]\[1\]: column sums to 0.9, expected 1$"),
    ],
)
def test_validate_column_stochastic_names_the_bad_entry(value, message):
    with pytest.raises(ValueError, match=message):
        stochcore.validate_column_stochastic(value, "B")


def _nan_at(m, i, j):
    m = np.array(m, dtype=float)
    m[i, j] = np.nan
    return m


def _binary_adder_scenario(**changes):
    base = dict(
        p1=np.array([0.5, 0.5]),
        p2=np.array([0.5, 0.5]),
        mac=MacModel.adder(2, 2),
        b=np.eye(3),
        attack=AttackSpec(),
        n=10,
        mu=0.1,
        delta=0.1,
        trials=1,
        master_seed=0,
    )
    return Scenario(**{**base, **changes})


@pytest.mark.parametrize(
    "build, path",
    [
        (lambda a: _binary_adder_scenario(p1=np.array([np.nan, 1.0])), "p1[0]"),
        (lambda a: _binary_adder_scenario(b=_nan_at(np.eye(3), 2, 1)), "B[2][1]"),
        (lambda a: DetectorConfig(a=_nan_at(a, 0, 1), b=np.eye(3), mu=0.1, delta=0.1), "A[0][1]"),
        (lambda a: certify(a, _nan_at(np.eye(3), 1, 1)), "B[1][1]"),
    ],
    ids=["Scenario-p1", "Scenario-b", "DetectorConfig-a", "certify-b"],
)
def test_library_entry_points_reject_a_nan_entry(build, path, motivating_a):
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}: entry nan is not finite$"):
        build(motivating_a)


@pytest.mark.parametrize(
    "value, zero_allowed, expected",
    [(0.1, False, 0.1), (2, False, 2.0), (np.float64(0.5), False, 0.5), (0, True, 0.0)],
)
def test_validate_positive_returns_a_float(value, zero_allowed, expected):
    number = stochcore.validate_positive(value, "mu", zero_allowed)
    assert type(number) is float and number == expected


@pytest.mark.parametrize(
    "value, shown",
    [
        (True, "True"),
        (np.bool_(True), r"(np\.)?True_?"),  # the repr depends on the NumPy version
        ("0.1", "'0.1'"),
        (None, "None"),
        ([0.1], r"\[0.1\]"),
        (0, "0.0"),
        (-0.1, "-0.1"),
        (np.inf, "inf"),
        (np.nan, "nan"),
    ],
)
def test_validate_positive_names_the_parameter(value, shown):
    with pytest.raises(ValueError, match=rf"^sim\.mu must be positive and finite, got {shown}$"):
        stochcore.validate_positive(value, "sim.mu")


def test_validate_positive_zero_allowed_still_rejects_negatives_and_bools():
    for value in (-0.1, False, -np.inf):
        with pytest.raises(ValueError, match="^mu must be nonnegative and finite"):
            stochcore.validate_positive(value, "mu", zero_allowed=True)


def test_validate_count_accepts_python_ints_only():
    assert stochcore.validate_count(3, "n") == 3
    assert stochcore.validate_count(0, "seed", minimum=0) == 0
    rejected = [(True, 1), (False, 0), (1.0, 1), ("3", 1), (None, 1), (np.int64(3), 1), (0, 1), (-1, 0)]
    for value, minimum in rejected:
        with pytest.raises(ValueError, match=rf"^n must be an integer >= {minimum}, got "):
            stochcore.validate_count(value, "n", minimum)


def test_validate_count_table_returns_a_valid_table_itself():
    counts = np.array([[3, 0], [0, 1], [2, 0]], np.uint16)
    assert stochcore.validate_count_table(counts, (3, 2)) is counts
    listed = stochcore.validate_count_table([[0, 1], [0, 0]], (2, 2))
    assert listed.tolist() == [[0, 1], [0, 0]] and listed.dtype.kind == "i"


def test_validate_trace_returns_a_valid_trace_itself():
    # the sampling stages hand it their traces; an empty one is the caller's to reject
    trace = np.array([0, 2, 1], np.uint8)
    assert stochcore.validate_trace(trace, "v", 3) is trace
    assert stochcore.validate_trace([2, 0], "v", 3).tolist() == [2, 0]
    assert stochcore.validate_trace(np.zeros(0, np.int64), "v", 3).size == 0


@pytest.mark.parametrize(
    "counts, message",
    [
        (np.ones((3, 2), int), r"^counts have shape \(3, 2\), expected \(2, 3\)$"),
        (np.ones((2, 3)), r"^counts must be integers, got dtype float64$"),
        (np.ones((2, 3), bool), r"^counts must be integers, got dtype bool$"),
        ([[5, 0, 0], [0, -1, 0]], r"^counts\[1\]\[1\]: entry -1 is negative$"),
        (np.zeros((2, 3), np.uint8), r"^counts hold no observation$"),
    ],
    ids=["shape", "float", "bool", "negative", "empty"],
)
def test_validate_count_table_rejects_what_is_not_a_table_of_counts(counts, message):
    with pytest.raises(ValueError, match=message):
        stochcore.validate_count_table(counts, (2, 3))


def test_validate_channel_checks_each_matrix_then_the_shared_alphabet(motivating_a):
    a, b = stochcore.validate_channel(motivating_a.tolist(), np.eye(3))
    assert a.dtype == b.dtype == float
    with pytest.raises(ValueError, match="^A and B disagree on the relay alphabet size$"):
        stochcore.validate_channel(motivating_a, np.eye(4))
    with pytest.raises(ValueError, match=r"^B\[\.\]\[0\]: column sums to 1.5"):
        stochcore.validate_channel(motivating_a, np.full((3, 3), 0.5))


# every entry point reports a bad parameter with the one stochcore message;
# before the rules moved there, True passed everywhere and "0.1" or None
# raised TypeError from a comparison
@pytest.mark.parametrize("value, shown", [(True, "True"), ("0.1", "'0.1'"), (None, "None")])
@pytest.mark.parametrize(
    "build, field, sign",
    [
        (lambda a, v: DetectorConfig(a=a, b=np.eye(3), mu=v, delta=0.1), "mu", "positive"),
        (lambda a, v: DetectorConfig(a=a, b=np.eye(3), mu=0.1, delta=v), "delta", "positive"),
        (lambda a, v: estimate_attack(a, a, np.eye(3), v), "mu", "nonnegative"),
        (lambda a, v: _binary_adder_scenario(delta=v), "delta", "positive"),
    ],
    ids=["DetectorConfig-mu", "DetectorConfig-delta", "estimate_attack-mu", "Scenario-delta"],
)
def test_library_entry_points_reject_a_non_real_parameter(
    build, field, sign, value, shown, motivating_a
):
    with pytest.raises(ValueError, match=rf"^{field} must be {sign} and finite, got {shown}$"):
        build(motivating_a, value)


def _uplink(n):
    half = np.array([0.5, 0.5])
    return channelmodel.simulate_uplink(MacModel.adder(2, 2), half, half, n, np.random.default_rng(0))


@pytest.mark.parametrize(
    "build, field, minimum",
    [
        (lambda v: _binary_adder_scenario(n=v), "n", 1),
        (lambda v: _binary_adder_scenario(trials=v), "trials", 1),
        (lambda v: _binary_adder_scenario(master_seed=v), "master_seed", 0),
        (_uplink, "n", 1),
    ],
    ids=["Scenario-n", "Scenario-trials", "Scenario-master_seed", "simulate_uplink-n"],
)
def test_entry_points_reject_a_bool_count(build, field, minimum):
    # True used to pass as 1; simulate_uplink raised TypeError from rng.random
    with pytest.raises(ValueError, match=rf"^{field} must be an integer >= {minimum}, got True$"):
        build(True)


@pytest.mark.parametrize(
    "entry", [certify, check_algorithm1, find_witness, lambda a, b: DetectorConfig(a, b, 0.1, 0.1)],
    ids=["certify", "check_algorithm1", "find_witness", "DetectorConfig"],
)
def test_every_entry_point_names_an_alphabet_mismatch_alike(entry, motivating_a):
    # certify used to say "downlink matrix has 4 columns but uplink has 3 rows"
    with pytest.raises(ValueError, match="^A and B disagree on the relay alphabet size$"):
        entry(motivating_a, np.eye(4))


# no x1 produces relay symbol 2
_UNREACHABLE_A = np.array([[0.5, 0.0], [0.5, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize(
    "entry",
    [
        lambda a: certify(a, np.eye(3)),
        lambda a: certify(a, [[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]),
        lambda a: check_algorithm1(a, np.eye(3)),
        lambda a: find_witness(a, np.eye(3)),
        lambda a: DetectorConfig(a, np.eye(3), 0.1, 0.1),
        lambda a: estimate_attack(a, a, np.eye(3), 0.1),
        lambda a: g_mu_residual(np.eye(3), a, a, np.eye(3)),
        dpv_search_algorithm2,
        lambda a: stochcore.channel_constants(a, 3),
        lambda a: stochcore.validate_channel(a, np.eye(3)),
    ],
    ids=[
        "certify-square-B",
        "certify-wide-B",
        "check_algorithm1",
        "find_witness",
        "DetectorConfig",
        "estimate_attack",
        "g_mu_residual",
        "dpv_search_algorithm2",
        "channel_constants",
        "validate_channel",
    ],
)
def test_every_entry_point_rejects_an_unreachable_relay_symbol(entry):
    # certify(A, I3) raised a plain ValueError from the null-space search;
    # with the 2 x 3 B it said manipulable, by a witness that moves only
    # symbol 2; DetectorConfig took A and called x1 = [0, 1, 0, 1],
    # y1 = [0, 1, 1, 1] malicious at D = D0 = 2.2
    message = r"^relay-input symbols \[2\] are unreachable; prune U$"
    with pytest.raises(stochcore.AlphabetReductionError, match=message):
        entry(_UNREACHABLE_A)


def test_validate_uplink_returns_what_validate_column_stochastic_returns(motivating_a):
    a = stochcore.validate_uplink(motivating_a.tolist())
    np.testing.assert_array_equal(a, stochcore.validate_column_stochastic(motivating_a, "A"))
    assert not a.flags.writeable
    with pytest.raises(ValueError, match=r"^A\[\.\]\[0\]: column sums to 1.5"):
        stochcore.validate_uplink(np.full((3, 2), 0.5))
    with pytest.raises(stochcore.AlphabetReductionError, match=r"symbols \[0, 2\] are"):
        stochcore.validate_uplink([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    assert channelmodel.AlphabetReductionError is stochcore.AlphabetReductionError
    assert relay_sentinel.AlphabetReductionError is stochcore.AlphabetReductionError


def _uplink_with(p1, p2):
    return channelmodel.simulate_uplink(MacModel.adder(2, 2), p1, p2, 5, np.random.default_rng(0))


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda p: _binary_adder_scenario(p1=p), "p1"),
        (lambda p: _binary_adder_scenario(p2=p), "p2"),
        (lambda p: _uplink_with(p, [1.0, 0.0]), "p1"),
        (lambda p: _uplink_with([1.0, 0.0], p), "p2"),
        (lambda p: channelmodel.marginalize_mac(MacModel.adder(2, 2), p), "p2"),
        (lambda p: channelmodel.stationary_u_pmf(MacModel.adder(2, 2), p, [1.0, 0.0]), "p1"),
        (lambda p: stochcore.validate_source(p, "p2", 2), "p2"),
    ],
    ids=[
        "Scenario-p1",
        "Scenario-p2",
        "simulate_uplink-p1",
        "simulate_uplink-p2",
        "marginalize_mac",
        "stationary_u_pmf",
        "validate_source",
    ],
)
def test_every_entry_point_checks_a_source_against_its_alphabet(build, name):
    # simulate_uplink used to draw x2 = 2 on the binary adder, which has no
    # such symbol, and map every pair (0, 2) to u = 1
    with pytest.raises(ValueError, match=rf"^{name}: has 3 entries for an alphabet of 2 symbols$"):
        build([0.0, 0.0, 1.0])


def test_validate_source_checks_the_pmf_first():
    p = stochcore.validate_source([0.25, 0.75], "p1", 2)
    np.testing.assert_array_equal(p, [0.25, 0.75])
    assert p.dtype == float and not p.flags.writeable
    with pytest.raises(ValueError, match=r"^p1: entries sum to 0.5, expected 1$"):
        stochcore.validate_source([0.5], "p1", 2)


def test_a_validator_recognises_what_it_issued_by_identity(full_checks):
    p = stochcore.validate_pmf([0.25, 0.75], "p1")
    assert full_checks == ["p1"]
    assert stochcore.validate_pmf(p, "p2") is p
    assert stochcore.validate_source(p, "p1", 2) is p
    assert full_checks == ["p1"]
    # equal content is not the same array: a caller's copy is checked in full
    copy = np.array(p)
    assert stochcore.validate_pmf(copy, "p1") is not copy
    assert full_checks == ["p1", "p1"]
    # the argument-dependent check still runs on an issued array
    with pytest.raises(ValueError, match=r"^p1: has 2 entries for an alphabet of 3 symbols$"):
        stochcore.validate_source(p, "p1", 3)
    a = stochcore.validate_uplink(_ADDER_A)
    b = stochcore.validate_column_stochastic(np.eye(3), "B")
    assert stochcore.validate_column_stochastic(a, "A") is a
    pair = stochcore.validate_channel(a, b)
    assert pair[0] is a and pair[1] is b
    with pytest.raises(ValueError, match=r"^A and B disagree on the relay alphabet size$"):
        stochcore.validate_channel(a, b[:, :2])
    assert full_checks == ["p1", "p1", "A", "B", "B"]


def test_an_issued_array_meets_every_other_rule_in_full():
    p = stochcore.validate_pmf([0.25, 0.75], "p")
    message = r"^m: expected a non-empty list of equal-length rows$"
    with pytest.raises(ValueError, match=message):
        stochcore.validate_column_stochastic(p, "m")
    # column-stochastic with a dead row: it passes as B but never as A
    dead = stochcore.validate_column_stochastic([[0.0, 0.0], [1.0, 1.0]], "B")
    assert stochcore.validate_column_stochastic(dead, "B") is dead
    with pytest.raises(stochcore.AlphabetReductionError, match=r"symbols \[0\] are unreachable"):
        stochcore.validate_uplink(dead)
    a = stochcore.validate_column_stochastic(_ADDER_A, "A")
    with pytest.raises(ValueError, match=r"^p: expected a non-empty list of probabilities$"):
        stochcore.validate_pmf(a, "p")


def test_a_collected_array_leaves_the_registry():
    before = len(stochcore._ISSUED)
    p = stochcore.validate_pmf([0.5, 0.5], "p")
    assert len(stochcore._ISSUED) == before + 1
    del p
    assert len(stochcore._ISSUED) == before


_ADDER_A = [[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]]


@pytest.mark.parametrize(
    "build, inputs",
    [
        (lambda p1, b: _binary_adder_scenario(p1=p1, b=b), {"p1": [0.5, 0.5], "b": np.eye(3)}),
        (AttackSpec, {"phi": [[0.0, 1.0], [1.0, 0.0]]}),
        (lambda table: MacModel(table, 2, 2), {"table": MacModel.adder(2, 2).table}),
        (lambda a, b: DetectorConfig(a, b, 0.1, 0.1), {"a": _ADDER_A, "b": np.eye(3)}),
    ],
    ids=["Scenario", "AttackSpec", "MacModel", "DetectorConfig"],
)
def test_validated_arrays_are_owned_and_read_only(build, inputs):
    # a later write into the caller's array must leave the frozen, validated
    # object as it was
    arrays = {name: np.array(value, dtype=float) for name, value in inputs.items()}
    validated = build(**arrays)
    for name, array in arrays.items():
        kept = np.array(inputs[name], dtype=float)
        array[0] = 7.0
        np.testing.assert_array_equal(getattr(validated, name), kept)
        with pytest.raises(ValueError, match="read-only"):
            getattr(validated, name)[0] = 7.0
        # nor can the flag be turned back, so a validator may trust what it issued
        with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
            getattr(validated, name).setflags(write=True)
    if isinstance(validated, Scenario):
        assert validated.detector_config.b is validated.b


@pytest.mark.parametrize(
    "first_size, second_size, key_dtype",
    [(16, 16, np.uint8), (17, 16, np.uint16), (1, 256, np.uint8), (2, 3, np.uint8)],
)
def test_pair_index_keys_come_in_the_smallest_unsigned_dtype(first_size, second_size, key_dtype):
    # every pair once: the keys are 0, ..., first_size * second_size - 1
    first, second = np.divmod(np.arange(first_size * second_size), second_size)
    expected = first.astype(np.intp) * second_size + second.astype(np.intp)
    for dtype in (np.uint8, np.uint16, np.int32, np.int64, np.uint64, np.intp):
        keys = stochcore.flat_key(
            (first.astype(dtype), second.astype(dtype)), (first_size, second_size)
        )
        assert keys.dtype == key_dtype, dtype
        np.testing.assert_array_equal(keys, expected)


def test_transition_counts_hand_counted():
    # counts[i, j] = #(observed = i, given = j), as int64
    counts = stochcore.joint_counts(([1, 1, 0, 0, 1], [0, 1, 0, 2, 0]), (2, 3), ("y", "x"))
    np.testing.assert_array_equal(counts, [[1, 0, 1], [2, 1, 0]])
    assert counts.dtype == np.int64


_NOT_1D = "trace must be one-dimensional, got shape"


@pytest.mark.parametrize(
    "given, observed, message",
    [
        ([0, 1], [0], "trace lengths differ"),
        ([], [], "empty traces"),
        ([0, 2], [0, 0], "g symbol 2 is outside the alphabet of size 2"),
        ([0, -1], [0, 0], "g symbol -1 is outside the alphabet of size 2"),
        ([0, 1], [0, 3], "o symbol 3 is outside the alphabet of size 3"),
        # a trace that is not 1-D used to fail inside NumPy: a broadcast
        # error, "object too deep for desired array" or an IndexError
        (np.zeros((5, 2), int), np.zeros(10, int), f"g {_NOT_1D} (5, 2)"),
        (np.zeros(5, int), np.zeros((5, 1), int), f"o {_NOT_1D} (5, 1)"),
        (np.int64(0), np.zeros(1, int), f"g {_NOT_1D} ()"),
    ],
)
def test_transition_counts_owns_the_trace_rules(given, observed, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        stochcore.joint_counts((observed, given), (3, 2), ("o", "g"))


@pytest.mark.parametrize(
    "given, observed, message",
    [
        ([0.0, 1.0], [0, 1], "g symbols must be integers, got dtype float64"),
        ([0, 1], [False, True], "o symbols must be integers, got dtype bool"),
        ([0, 1], ["0", "1"], "o symbols must be integers, got dtype <U1"),
    ],
)
def test_transition_counts_rejects_non_integer_traces(given, observed, message):
    # a float trace used to leak NumPy's TypeError from np.bincount
    with pytest.raises(ValueError, match=f"^{message}$"):
        stochcore.joint_counts((np.array(observed), np.array(given)), (3, 2), ("o", "g"))


def test_transition_counts_takes_every_integer_dtype():
    for dtype in (np.uint8, np.int32, np.uint64, np.int64):
        counts = stochcore.joint_counts(
            (np.array([2, 0, 2], dtype=dtype), np.array([0, 1, 1], dtype=dtype)), (3, 2), ("o", "g")
        )
        np.testing.assert_array_equal(counts, [[0, 1], [0, 0], [1, 1]])


# around one and two 8 192-symbol blocks, and the 4 096-symbol edges before them
_BLOCK_EDGE_LENGTHS = (1, 4_095, 4_096, 4_097, 8_191, 8_192, 8_193, 12_293)
_JOINT_NAMES = ("y1", "x1", "v", "u")


@pytest.mark.parametrize("n", _BLOCK_EDGE_LENGTHS)
@pytest.mark.parametrize(
    "sizes, key_dtype",
    [((4, 3, 5, 5), np.uint16), ((3, 1, 2, 2), np.uint8)],
    ids=["300 cells", "one-symbol x1"],
)
def test_joint_counts_marginals_are_the_transition_counts(n, sizes, key_dtype):
    # a (y1, x1, v, u) table: its (y1, x1) and (v, u) marginals are the two
    # pair tables, and the whole table is one bincount of int64 keys
    rng = np.random.default_rng(n)
    y1, x1, v, u = (rng.integers(size, size=n).astype(np.uint8) for size in sizes)
    wide_keys = np.ravel_multi_index([t.astype(np.int64) for t in (y1, x1, v, u)], sizes)
    oracle = np.bincount(wide_keys, minlength=int(np.prod(sizes))).reshape(sizes)
    assert stochcore.flat_key((y1, x1, v, u), sizes).dtype == key_dtype
    for dtype in (np.uint8, np.int64):
        traces = [t.astype(dtype) for t in (y1, x1, v, u)]
        joint = stochcore.joint_counts(traces, sizes, _JOINT_NAMES)
        assert joint.dtype == np.intp and joint.shape == sizes
        np.testing.assert_array_equal(joint, oracle)
        wide_y1, wide_x1, wide_v, wide_u = traces
        np.testing.assert_array_equal(
            joint.sum(axis=(2, 3)),
            stochcore.joint_counts((wide_y1, wide_x1), sizes[:2], _JOINT_NAMES[:2]),
        )
        np.testing.assert_array_equal(
            joint.sum(axis=(0, 1)),
            stochcore.joint_counts((wide_v, wide_u), sizes[2:], _JOINT_NAMES[2:]),
        )


@pytest.mark.parametrize(
    "index, trace, message",
    [
        (1, np.array([0, 0, 5, 0]), "x1 symbol 5 is outside the alphabet of size 2"),
        (0, np.array([0, -1, 0, 0]), "y1 symbol -1 is outside the alphabet of size 3"),
        (3, np.zeros((4, 1), int), f"u {_NOT_1D} (4, 1)"),
        (2, np.zeros(4), "v symbols must be integers, got dtype float64"),
        (1, np.zeros(4, bool), "x1 symbols must be integers, got dtype bool"),
        (2, np.zeros(3, int), "trace lengths differ"),
    ],
)
def test_joint_counts_names_the_trace_that_breaks_a_rule(index, trace, message):
    traces = [np.zeros(4, np.uint8) for _ in _JOINT_NAMES]
    traces[index] = trace
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        stochcore.joint_counts(traces, (3, 2, 5, 5), _JOINT_NAMES)
    with pytest.raises(ValueError, match="^empty traces$"):
        stochcore.joint_counts([np.zeros(0, int)] * 4, (3, 2, 5, 5), _JOINT_NAMES)


# ---------- frozen arrays and content memos ----------


@pytest.mark.parametrize(
    "value",
    [
        np.arange(12.0).reshape(3, 4),
        np.asfortranarray(np.arange(12.0).reshape(3, 4)),
        np.arange(24.0).reshape(4, 6)[::2, 1::2],  # a strided view
        np.arange(5, dtype=np.intp),
        np.zeros((0, 3)),
        [[1, 2], [3, 4]],
    ],
    ids=["C order", "Fortran order", "strided", "intp", "empty", "list"],
)
def test_a_frozen_array_is_an_immutable_contiguous_aligned_copy(value):
    # the BLAS path, and so the rounding, depends on the layout: a frozen
    # array must read as a fresh C-ordered copy would
    arr = stochcore.frozen(value)
    expected = np.array(value)
    np.testing.assert_array_equal(arr, expected)
    assert arr.dtype == expected.dtype and arr.shape == expected.shape
    assert arr.flags.c_contiguous and arr.flags.aligned
    if isinstance(value, np.ndarray):
        assert not np.shares_memory(arr, value)
    assert_frozen(arr)
    if arr.ndim == 2 and arr.size:
        assert_frozen(arr[0])  # a view of a frozen array is frozen too


def test_a_content_memo_meets_equal_content_in_one_entry_and_hands_it_frozen():
    received = []

    @stochcore.content_memo(4)
    def total(label, matrix, scale):
        received.append(matrix)
        return label, float(matrix.sum()) * scale

    matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
    first = total("m", matrix, 2.0)
    for equal in (matrix.copy(), np.asfortranarray(matrix), matrix.astype(np.int64)):
        assert total("m", equal, 2.0) is first
    assert total.cache_info()[:2] == (3, 1)  # hits, misses
    (seen,) = received
    assert seen.dtype == float and seen.flags.c_contiguous
    np.testing.assert_array_equal(seen, matrix)
    assert_frozen(seen)
    # the shape is part of the key, and so is every other argument
    total("m", matrix.reshape(1, 4), 2.0)
    total("m", matrix, 3.0)
    total("n", matrix, 2.0)
    assert total.cache_info()[:2] == (3, 4)
    assert total in stochcore._MEMOS
    assert total.__name__ == "total" and total.__wrapped__("x", matrix, 1.0) == ("x", 10.0)
    total.cache_clear()
    assert total.cache_info()[:2] == (0, 0)
    stochcore._MEMOS.remove(total)
