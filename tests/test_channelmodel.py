"""Oracle tests for source/MAC/broadcast models and trace sampling."""

import re

import numpy as np
import pytest

from conftest import assert_frozen, is_column_stochastic
from relay_sentinel import attackmodel, channelmodel, stochcore
from relay_sentinel.attackmodel import AttackSpec
from relay_sentinel.channelmodel import AlphabetReductionError, MacModel


def test_adder_mac_shape_and_determinism():
    mac = MacModel.adder(2, 2)
    assert mac.u_size == 3
    assert mac.x1_size == 2 and mac.x2_size == 2
    assert stochcore.point_masses(mac.table) is not None
    # column for (x1=1, x2=0) is the point mass at u=1
    np.testing.assert_allclose(mac.table[:, 1 * 2 + 0], [0.0, 1.0, 0.0])


def test_table_mac_validation():
    with pytest.raises(ValueError):
        MacModel(np.array([[0.5, 0.5], [0.4, 0.5]]), 2, 1)


def test_table_mac_checks_its_table_and_derives_determinism():
    # a model used to take its determinism flag on trust, so a NaN table
    # or a table with a split column could be declared deterministic
    with pytest.raises(ValueError, match=r"table\[0\]\[0\]: entry nan is not finite"):
        MacModel(np.array([[np.nan, 0.0], [1.0, 1.0]]), 2, 1)
    with pytest.raises(ValueError, match="expected 4"):
        MacModel(np.eye(2), 2, 2)
    mixed = np.array([[1.0, 0.5], [0.0, 0.5]])
    assert stochcore.point_masses(MacModel(mixed, 2, 1).table) is None
    assert stochcore.point_masses(MacModel(np.eye(2), 2, 1).table) is not None
    assert stochcore.point_masses(MacModel.adder(3, 2).table) is not None
    with pytest.raises(TypeError):
        MacModel(mixed, 2, 1, True)
    # the alphabet sizes are counts: a product of -1 and -2 fit two columns
    with pytest.raises(ValueError, match="x1_size must be an integer >= 1, got -1"):
        MacModel(np.eye(2), -1, -2)
    with pytest.raises(ValueError, match="x1_size must be an integer >= 1, got True"):
        MacModel(np.eye(2), True, 2)


def test_determinism_is_judged_at_default_tol():
    # an entry within DEFAULT_TOL (1e-9) of 0 or 1 is a point mass; 5e-9 of
    # mass counts for the validators, so the column is sampled, not dropped
    n = 1000
    stream = np.random.default_rng(7).random(3 * n + 1)
    for mass, deterministic in ((5e-9, False), (5e-10, True)):
        mac = MacModel(np.array([[1.0, 1.0 - mass], [0.0, mass]]), 2, 1)
        assert (stochcore.point_masses(mac.table) is not None) is deterministic
        rng = np.random.default_rng(7)
        channelmodel.simulate_uplink(mac, [0.5, 0.5], [1.0], n, rng)
        # x1 and x2 take n draws each, and a sampled u another n
        assert rng.random() == stream[2 * n if deterministic else 3 * n]
        # the same two columns as a downlink B: looked up, or n draws
        rng = np.random.default_rng(7)
        y1 = channelmodel.simulate_downlink(mac.table, np.arange(n) % 2, rng)
        assert rng.random() == stream[0 if deterministic else n]
        if deterministic:  # the stray mass of column 1 is dropped
            np.testing.assert_array_equal(y1, np.zeros(n))
    for x1_size in range(1, 6):
        for x2_size in range(1, 6):
            assert stochcore.point_masses(MacModel.adder(x1_size, x2_size).table) is not None


def test_marginalize_binary_adder(motivating_a):
    mac = MacModel.adder(2, 2)
    a = channelmodel.marginalize_mac(mac, np.array([0.5, 0.5]))
    np.testing.assert_allclose(a, motivating_a, atol=1e-12)


def test_marginalize_ternary_adder(higher_a):
    mac = MacModel.adder(3, 3)
    a = channelmodel.marginalize_mac(mac, np.full(3, 1.0 / 3.0))
    np.testing.assert_allclose(a, higher_a, atol=1e-12)


def test_marginalize_degenerate_second_source():
    table = np.array([[0.9, 0.2], [0.1, 0.8]])
    mac = MacModel(table, x1_size=2, x2_size=1)
    a = channelmodel.marginalize_mac(mac, np.array([1.0]))
    np.testing.assert_allclose(a, table, atol=1e-12)


def test_marginalize_dead_output_row_rejected():
    table = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    mac = MacModel(table, x1_size=2, x2_size=1)
    with pytest.raises(AlphabetReductionError):
        channelmodel.marginalize_mac(mac, np.array([1.0]))


def test_gamma_from_identity_collapse(motivating_a):
    gamma = channelmodel.gamma_from(motivating_a, np.eye(3), np.eye(3))
    np.testing.assert_allclose(gamma, motivating_a, atol=1e-12)


def test_gamma_from_higher_order_column(higher_a, higher_b):
    gamma = channelmodel.gamma_from(higher_a, higher_b, np.eye(5))
    np.testing.assert_allclose(gamma[:, 0], [0.5, 0.4, 0.1, 0.0], atol=1e-12)


def test_gamma_from_stochastic(motivating_a, motivating_phis):
    gamma = channelmodel.gamma_from(motivating_a, np.eye(3), motivating_phis[4])
    assert is_column_stochastic(gamma, 1e-9)


def test_stationary_u_pmf_binary_adder():
    mac = MacModel.adder(2, 2)
    pmf = channelmodel.stationary_u_pmf(
        mac, np.array([0.5, 0.5]), np.array([0.5, 0.5])
    )
    np.testing.assert_allclose(pmf, [0.25, 0.5, 0.25], atol=1e-12)


def test_stationary_u_pmf_ternary_adder():
    mac = MacModel.adder(3, 3)
    uniform = np.full(3, 1.0 / 3.0)
    pmf = channelmodel.stationary_u_pmf(mac, uniform, uniform)
    np.testing.assert_allclose(
        pmf, np.array([1.0, 2.0, 3.0, 2.0, 1.0]) / 9.0, atol=1e-12
    )


def test_stationary_u_pmf_point_masses():
    mac = MacModel.adder(3, 3)
    p1 = np.array([0.0, 1.0, 0.0])
    p2 = np.array([0.0, 0.0, 1.0])
    pmf = channelmodel.stationary_u_pmf(mac, p1, p2)
    np.testing.assert_allclose(pmf, [0.0, 0.0, 0.0, 1.0, 0.0], atol=1e-12)


def _argmax_oracle(matrix, columns, draws):
    """The former sampling formula: first row of the cumulative sum above the draw."""
    cum = np.cumsum(np.asarray(matrix, dtype=float), axis=0)
    cum[-1, :] = 1.0
    return (cum[:, columns] > draws).argmax(axis=0)


class _ScriptedGenerator:
    """Stands in for a Generator whose random(n) calls serve scripted blocks.

    Consecutive calls take consecutive slices of the current block; a call
    may not run past its end, and the next call starts the next block.
    """

    def __init__(self, *blocks):
        self.blocks = list(blocks)
        self.offset = 0

    def random(self, n):
        block = self.blocks[0]
        draws = block[self.offset : self.offset + n]
        assert draws.size == n
        self.offset += n
        if self.offset == block.size:
            self.blocks.pop(0)
            self.offset = 0
        return draws


def _oracle_draws(matrix):
    """0.0, every cumulative boundary and its neighbours, the largest draw < 1."""
    bounds = np.cumsum(matrix, axis=0).ravel()
    draws = np.concatenate(
        [bounds, np.nextafter(bounds, 0.0), np.nextafter(bounds, 2.0)]
    )
    draws = draws[(draws >= 0.0) & (draws < 1.0)]
    return np.unique(np.concatenate([[0.0, np.nextafter(1.0, 0.0)], draws]))


def test_inverse_cdf_kernel_matches_argmax_oracle():
    rng = np.random.default_rng(404)
    dips = np.array(
        [
            [0.5, 0.3, -5e-10, 0.25],
            [-5e-10, 0.2 + 5e-10, 0.6, 0.25 - 5e-10],
            [0.5 + 5e-10, -5e-10, 0.4 + 5e-10, 5e-10],
            [0.0, 0.5 + 5e-10, 0.0, 0.5 - 5e-10],
        ]
    )
    # the last column sums to 1 - 5e-10: draws above that stay in its last row
    assert is_column_stochastic(dips)
    matrices = {
        "dirichlet": rng.dirichlet(np.ones(4), size=5).T,
        "point masses": np.eye(4)[:, [2, 0, 3, 3, 1]],
        "negative dips": dips,
        "quarters": np.array([[0.25], [0.5], [0.25]]),
    }
    for label, matrix in matrices.items():
        draws = np.concatenate([_oracle_draws(matrix), rng.random(200)])
        for columns in [
            np.full(draws.size, j) for j in range(matrix.shape[1])
        ] + [rng.integers(0, matrix.shape[1], draws.size)]:
            np.testing.assert_array_equal(
                channelmodel.sample_trace(
                    matrix, draws.size, _ScriptedGenerator(draws), columns
                ),
                _argmax_oracle(matrix, columns, draws),
                err_msg=label,
            )

    # hand-checked boundaries: a draw equal to a cumulative value moves on
    quarters = matrices["quarters"]
    draws = np.array([0.0, 0.25, 0.3, 0.75, 0.999])
    expected = [0, 1, 1, 2, 2]
    columns = np.zeros(draws.size, dtype=int)
    np.testing.assert_array_equal(
        channelmodel.sample_trace(
            quarters, draws.size, _ScriptedGenerator(draws), columns
        ),
        expected,
    )
    # columns=None samples one pmf
    np.testing.assert_array_equal(
        channelmodel.sample_trace(quarters[:, 0], draws.size, _ScriptedGenerator(draws)),
        expected,
    )
    mac = MacModel.adder(3, 1)
    x1, x2, _ = channelmodel.simulate_uplink(
        mac, quarters[:, 0], [1.0], draws.size, _ScriptedGenerator(draws, draws)
    )
    np.testing.assert_array_equal(x1, expected)
    np.testing.assert_array_equal(x2, np.zeros(draws.size))

    # simulate_uplink's sources and a non-deterministic MAC's u column
    for p1, p2 in [
        (dips[:, 1], dips[:3, 0]),
        (matrices["dirichlet"][:, 0], matrices["dirichlet"][:, 1]),
        (dips[:, 0], dips[:, 2]),
        (np.array([0.0, 1.0, 0.0]), np.array([0.5, 0.0, 0.5])),
    ]:
        p1_col, p2_col = p1[:, None], p2[:, None]
        n = max(_oracle_draws(p1_col).size, _oracle_draws(p2_col).size)
        first = np.resize(_oracle_draws(p1_col), n)
        second = np.resize(_oracle_draws(p2_col), n)
        table = rng.dirichlet(np.ones(3), size=p1.size * p2.size).T
        table[:, 0] = dips[:3, 0]
        mac = MacModel(table, p1.size, p2.size)
        third = rng.random(n)
        x1, x2, u = channelmodel.simulate_uplink(
            mac, p1, p2, n, _ScriptedGenerator(first, second, third)
        )
        zeros = np.zeros(n, dtype=int)
        np.testing.assert_array_equal(x1, _argmax_oracle(p1_col, zeros, first))
        np.testing.assert_array_equal(x2, _argmax_oracle(p2_col, zeros, second))
        np.testing.assert_array_equal(
            u, _argmax_oracle(table, x1 * p2.size + x2, third)
        )


_DIPS = np.array(
    [
        [0.5, 0.3, -5e-10, 0.25],
        [-5e-10, 0.2 + 5e-10, 0.6, 0.25 - 5e-10],
        [0.5 + 5e-10, -5e-10, 0.4 + 5e-10, 5e-10],
        [0.0, 0.5 + 5e-10, 0.0, 0.5 - 5e-10],
    ]
)

_BLOCK = stochcore.BLOCK_SIZE
# lengths either side of each block edge, and inside a block as well as past one
_LENGTHS = sorted({4095, 4096, 4097, 12293, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5})


@pytest.mark.parametrize("n", _LENGTHS)
def test_blocked_sampler_matches_argmax_oracle_across_blocks(n):
    # each stage draws in blocks; the oracle samples the concatenated draws
    rng = np.random.default_rng(n)
    matrices = {
        "dirichlet": rng.dirichlet(np.ones(4), size=5).T,
        "negative dips": _DIPS,
        "point masses": np.eye(4)[:, [2, 0, 3, 3, 1]],
    }

    def draws_for(matrix):
        return rng.permutation(np.resize(_oracle_draws(matrix), n))

    zeros = np.zeros(n, dtype=int)
    for label, matrix in matrices.items():
        columns = rng.integers(0, matrix.shape[1], n)
        for pmf in matrix.T:  # the columns=None pmfs
            draws = draws_for(pmf[:, None])
            np.testing.assert_array_equal(
                channelmodel.sample_trace(pmf, n, _ScriptedGenerator(draws)),
                _argmax_oracle(pmf[:, None], zeros, draws),
                err_msg=label,
            )
        draws = draws_for(matrix)
        np.testing.assert_array_equal(
            channelmodel.simulate_downlink(matrix, columns, _ScriptedGenerator(draws)),
            _argmax_oracle(matrix, columns, draws),
            err_msg=label,
        )

    # a non-deterministic MAC: x1, x2, then u from the pair's column
    p1, p2 = _DIPS[:, 1], _DIPS[:3, 0]
    table = rng.dirichlet(np.ones(3), size=p1.size * p2.size).T
    table[:, 0] = _DIPS[:3, 0]
    mac = MacModel(table, p1.size, p2.size)
    first, second, third = draws_for(p1[:, None]), draws_for(p2[:, None]), rng.random(n)
    x1, x2, u = channelmodel.simulate_uplink(
        mac, p1, p2, n, _ScriptedGenerator(first, second, third)
    )
    np.testing.assert_array_equal(x1, _argmax_oracle(p1[:, None], zeros, first))
    np.testing.assert_array_equal(x2, _argmax_oracle(p2[:, None], zeros, second))
    np.testing.assert_array_equal(u, _argmax_oracle(table, x1 * p2.size + x2, third))

    # a gated attack whose gate is open on this block
    phi = np.array([[0.5, -5e-10, 0.3], [-5e-10, 0.6 + 5e-10, 0.3], [0.5 + 5e-10, 0.4, 0.4]])
    parity = ("even", "odd")[int(u.sum()) % 2]
    draws = draws_for(phi)
    v = attackmodel.apply_attack(AttackSpec(phi, parity), u, _ScriptedGenerator(draws))
    np.testing.assert_array_equal(v, _argmax_oracle(phi, u, draws))


_POINT_MASS_BS = {
    "identity": np.eye(3),
    "permutation": np.eye(3)[:, [2, 0, 1]],
    "many-to-one": np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
    "one row": np.ones((1, 4)),
}


@pytest.mark.parametrize("n", [1, *_LENGTHS])
def test_point_mass_downlink_is_a_lookup_that_draws_nothing(n):
    rng = np.random.default_rng(n)
    for label, b in _POINT_MASS_BS.items():
        v = rng.integers(0, b.shape[1], n).astype(np.uint8)
        draws = rng.permutation(np.resize(_oracle_draws(b), n))
        # a generator with no blocks fails on its first call
        y1 = channelmodel.simulate_downlink(b, v, _ScriptedGenerator())
        sampled = channelmodel.sample_trace(b, n, _ScriptedGenerator(draws), v)
        assert y1.dtype == sampled.dtype == stochcore.symbol_dtype(b.shape[0]), label
        np.testing.assert_array_equal(y1, sampled, err_msg=label)
        np.testing.assert_array_equal(y1, _argmax_oracle(b, v, draws), err_msg=label)


@pytest.mark.parametrize(
    "b, v",
    [
        (np.eye(3), np.array([0, 2, 1, 1, 0], np.uint8)),
        (np.eye(4)[:, :3], np.array([2, 0, 1], np.int64)),  # column j on row j of four
        (np.eye(300), np.arange(299, -1, -1)),
    ],
    ids=["B = I", "B = I over a wider output", "uint16 output"],
)
def test_an_identity_downlink_is_a_copy_that_draws_nothing(b, v):
    y1 = channelmodel.simulate_downlink(b, v, _ScriptedGenerator())
    np.testing.assert_array_equal(y1, v)
    assert y1 is not v and not np.shares_memory(y1, v)
    assert y1.dtype == stochcore.symbol_dtype(b.shape[0])
    assert channelmodel._cdf_table(b)[3]


def test_cumulative_tables_and_point_masses_are_frozen():
    # the tables are memoized process-wide, one per matrix, for every
    # trial (a pmf's rows are scalars)
    sampled = np.array([[0.5, 0.25], [0.25, 0.5], [0.25, 0.25]])
    for matrix in (sampled, MacModel.adder(2, 2).table, np.eye(3)[:, [2, 0, 1]]):
        rows, _, points, _ = channelmodel._cdf_table(matrix)
        assert rows
        for arr in rows + ((points,) if points is not None else ()):
            assert_frozen(arr)
    assert channelmodel._cdf_table(np.eye(3)[:, [2, 0, 1]])[2] is not None


def test_a_permuted_point_mass_downlink_is_still_a_lookup():
    b = np.eye(3)[:, [2, 0, 1]]
    v = np.array([0, 1, 2, 2], np.uint8)
    assert not channelmodel._cdf_table(b)[3]
    y1 = channelmodel.simulate_downlink(b, v, _ScriptedGenerator())
    np.testing.assert_array_equal(y1, [2, 0, 1, 1])


def test_a_permutation_attack_still_draws():
    # the attack's draws sit between u and y1 in a trial's stream, so even a
    # point-mass phi is sampled: a lookup would shift y1's draws
    n = 1000
    phi = np.eye(3)[:, [1, 2, 0]]
    u = (np.arange(n) % 3).astype(np.uint8)
    stream = np.random.default_rng(8).random(n + 1)
    rng = np.random.default_rng(8)
    v = attackmodel.apply_attack(AttackSpec(phi), u, rng)
    np.testing.assert_array_equal(v, (u + 1) % 3)
    assert rng.random() == stream[n]


def test_wide_alphabets_write_the_first_comparison_in_their_own_dtype():
    # 257 symbols come back as uint16, which takes no bool view
    rng = np.random.default_rng(257)
    matrix = rng.dirichlet(np.ones(257), size=3).T
    columns = rng.integers(0, 3, 2 * _BLOCK + 7)
    draws = rng.random(columns.size)
    trace = channelmodel.sample_trace(
        matrix, columns.size, _ScriptedGenerator(draws), columns
    )
    assert trace.dtype == np.uint16
    np.testing.assert_array_equal(trace, _argmax_oracle(matrix, columns, draws))


def test_traces_come_in_the_smallest_unsigned_dtype_of_their_alphabet():
    rng = np.random.default_rng(17)
    for size, dtype in [(1, np.uint8), (17, np.uint8), (256, np.uint8), (257, np.uint16), (300, np.uint16)]:
        pmf = np.full(size, 1.0 / size)
        trace = channelmodel.sample_trace(pmf, 50, rng)
        assert trace.dtype == dtype
        assert channelmodel.simulate_downlink(np.full((size, 2), 1.0 / size), trace % 2, rng).dtype == dtype
    x1, x2, u = channelmodel.simulate_uplink(
        MacModel.adder(3, 3), np.full(3, 1 / 3), np.full(3, 1 / 3), 50, rng
    )
    assert x1.dtype == x2.dtype == u.dtype == np.uint8


def test_mac_pair_lookup_widens_compact_symbols():
    # 17 x 17 pairs: the flattened key of (16, 16) is 288, past uint8
    mac = MacModel.adder(17, 17)
    uniform = np.full(17, 1 / 17)
    x1, x2, u = channelmodel.simulate_uplink(mac, uniform, uniform, 20_000, np.random.default_rng(5))
    assert x1.dtype == u.dtype == np.uint8
    assert ((x1 == 16) & (x2 == 16)).any()
    np.testing.assert_array_equal(u, x1.astype(np.int64) + x2)
    table = np.full((2, 17 * 17), 0.5)
    table[:, -1] = [1.0, 0.0]  # the (16, 16) pair alone always gives u = 0
    mac = MacModel(table, 17, 17)
    x1, x2, u = channelmodel.simulate_uplink(mac, uniform, uniform, 20_000, np.random.default_rng(5))
    assert (u[(x1 == 16) & (x2 == 16)] == 0).all()
    assert (u[(x1 != 16) | (x2 != 16)] == 1).any()


def test_simulate_uplink_adder_identity():
    mac = MacModel.adder(2, 2)
    rng = np.random.default_rng(3)
    half = np.array([0.5, 0.5])
    x1, x2, u = channelmodel.simulate_uplink(mac, half, half, 500, rng)
    np.testing.assert_array_equal(u, x1 + x2)
    assert len(x1) == len(x2) == len(u) == 500


def test_simulate_uplink_law_of_large_numbers():
    mac = MacModel.adder(2, 2)
    rng = np.random.default_rng(101)
    half = np.array([0.5, 0.5])
    _, _, u = channelmodel.simulate_uplink(mac, half, half, 100_000, rng)
    hist = np.bincount(u, minlength=3) / len(u)
    l1 = np.abs(hist - np.array([0.25, 0.5, 0.25])).sum()
    # realized value at first run with this seed: 0.00514
    assert l1 < 0.02


def test_simulate_uplink_seed_determinism():
    mac = MacModel.adder(3, 3)
    uniform = np.full(3, 1.0 / 3.0)
    a = channelmodel.simulate_uplink(
        mac, uniform, uniform, 200, np.random.default_rng(42)
    )
    b = channelmodel.simulate_uplink(
        mac, uniform, uniform, 200, np.random.default_rng(42)
    )
    for left, right in zip(a, b):
        np.testing.assert_array_equal(left, right)


def test_empirical_conditional_frequency_matches_a(higher_a):
    mac = MacModel.adder(3, 3)
    uniform = np.full(3, 1.0 / 3.0)
    rng = np.random.default_rng(55)
    x1, _, u = channelmodel.simulate_uplink(mac, uniform, uniform, 100_000, rng)
    for j in range(3):
        mask = x1 == j
        hist = np.bincount(u[mask], minlength=5) / mask.sum()
        assert np.abs(hist - higher_a[:, j]).sum() < 0.03


def test_simulate_downlink_identity():
    rng = np.random.default_rng(9)
    v = np.array([0, 2, 1, 1, 0])
    y1 = channelmodel.simulate_downlink(np.eye(3), v, rng)
    np.testing.assert_array_equal(y1, v)


@pytest.mark.parametrize("b", [np.eye(3), np.full((2, 3), 0.5)], ids=["looked-up B", "sampled B"])
@pytest.mark.parametrize(
    "v, message",
    [
        # v = -1 used to read B's last column, v = 3 to raise a bare IndexError
        ([-1, 0], "v symbol -1 is outside the alphabet of size 3"),
        ([0, 3], "v symbol 3 is outside the alphabet of size 3"),
        (np.array([0.0, 1.0]), "v symbols must be integers, got dtype float64"),
        (np.array([True, False]), "v symbols must be integers, got dtype bool"),
        (np.zeros((2, 1), int), "v trace must be one-dimensional, got shape (2, 1)"),
    ],
    ids=["negative", "past B", "float", "bool", "2-D"],
)
def test_simulate_downlink_takes_relay_outputs_by_the_trace_rule(b, v, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        channelmodel.simulate_downlink(b, v, np.random.default_rng(0))


@pytest.mark.parametrize(
    "b, message",
    [
        # both used to be sampled as they were
        ([[2.0, -1.0]], "B[0][1]: entry -1.0 is negative"),
        ([[0.5, 1.0], [0.4, 0.0]], "B[.][0]: column sums to 0.9, expected 1"),
    ],
    ids=["negative entry", "column sum"],
)
def test_simulate_downlink_takes_b_by_the_column_stochastic_rule(b, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        channelmodel.simulate_downlink(b, [0, 1], np.random.default_rng(0))


def test_simulate_downlink_column_support(higher_b):
    rng = np.random.default_rng(10)
    v = np.full(300, 1)  # column 1 of B has support {0, 1}
    y1 = channelmodel.simulate_downlink(higher_b, v, rng)
    assert set(np.unique(y1)) <= {0, 1}


def test_simulate_downlink_seed_determinism(higher_b):
    v = np.array([0, 1, 2, 3, 4] * 20)
    a = channelmodel.simulate_downlink(higher_b, v, np.random.default_rng(77))
    b = channelmodel.simulate_downlink(higher_b, v, np.random.default_rng(77))
    np.testing.assert_array_equal(a, b)


def test_marginalize_random_tables_stochastic():
    rng = np.random.default_rng(202)
    for _ in range(100):
        u = int(rng.integers(2, 6))
        x1 = int(rng.integers(2, 5))
        x2 = int(rng.integers(1, 5))
        table = rng.dirichlet(np.ones(u), size=x1 * x2).T
        mac = MacModel(table, x1, x2)
        p2 = rng.dirichlet(np.ones(x2))
        try:
            a = channelmodel.marginalize_mac(mac, p2)
        except AlphabetReductionError:
            continue
        assert is_column_stochastic(a, 1e-9)


def test_gamma_random_triples_stochastic():
    rng = np.random.default_rng(203)
    for _ in range(100):
        u = int(rng.integers(2, 6))
        x1 = int(rng.integers(2, 5))
        y1 = int(rng.integers(2, 5))
        a = rng.dirichlet(np.ones(u), size=x1).T
        b = rng.dirichlet(np.ones(y1), size=u).T
        phi = rng.dirichlet(np.ones(u), size=u).T
        assert is_column_stochastic(
            channelmodel.gamma_from(a, b, phi), 1e-9
        )
