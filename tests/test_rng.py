"""Seeded stream reproducibility and distributional sanity."""

import math

import numpy as np
import pytest
from scipy import stats

from gmmlor import InputError, SeededStream, derive_seed
from gmmlor.estimate import _balanced_random_assignment
from gmmlor.rng import _BLOCK_EVENTS, cholesky_2x2
from conftest import NOT_INTEGERS


def test_same_seed_same_sequences():
    a, b = SeededStream(1234), SeededStream(1234)
    assert np.array_equal(a.uniform01(100), b.uniform01(100))
    assert np.array_equal(a.standard_normal_pairs(50), b.standard_normal_pairs(50))
    assert np.array_equal(a.angles(40), b.angles(40))
    assert np.array_equal(a.permutation(30), b.permutation(30))
    assert np.array_equal(
        a.categorical([0.2, 0.3, 0.5], 60), b.categorical([0.2, 0.3, 0.5], 60)
    )


def test_different_seeds_differ():
    a, b = SeededStream(1), SeededStream(2)
    assert not np.array_equal(a.uniform01(64), b.uniform01(64))


def test_derive_seed_is_stable():
    # frozen first outputs of the seed-mixing function
    assert derive_seed(0, 0) == 16294208416658607535
    assert derive_seed(0, 1) == 7960286522194355700
    assert derive_seed(0, 0) != derive_seed(1, 0)
    assert derive_seed(7, 3) == derive_seed(7, 3)


def test_uniform01_range():
    u = SeededStream(9).uniform01(10000)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_open01_excludes_endpoints():
    u = SeededStream(9).open01(10000)
    assert u.min() > 0.0 and u.max() < 1.0


def test_normal_pairs_moments():
    z = SeededStream(2718).standard_normal_pairs(100000)
    assert z.shape == (100000, 2)
    flat = z.ravel()
    assert abs(flat.mean()) < 0.01
    assert abs(flat.var() - 1.0) < 0.02
    # the two columns are uncorrelated draws
    assert abs(np.corrcoef(z[:, 0], z[:, 1])[0, 1]) < 0.02


def test_angles_uniform_over_half_turn():
    ang = SeededStream(31415).angles(10000)
    assert ang.min() >= -math.pi / 2 and ang.max() < math.pi / 2
    res = stats.kstest(ang, stats.uniform(-math.pi / 2, math.pi).cdf)
    assert res.pvalue > 0.01


def test_permutation_is_a_permutation():
    p = SeededStream(5).permutation(200)
    assert np.array_equal(np.sort(p), np.arange(200))


@pytest.mark.parametrize("n", [0, 1, 2, 17, 1000, 70_001])
def test_permutation_is_the_stable_argsort_of_the_draws(n):
    u = SeededStream(n).uniform01(n)
    want = np.argsort(u, kind="stable")
    assert np.array_equal(SeededStream(n).permutation(n), want)


def test_permutation_with_equal_draws_keeps_them_in_draw_order(monkeypatch):
    # few distinct values, so the default sort would be free to reorder
    # equal draws; the stable fallback keeps them in draw order
    draws = np.repeat([0.75, 0.25, 0.5, 0.0], 300)
    np.random.default_rng(3).shuffle(draws)
    monkeypatch.setattr(SeededStream, "uniform01", lambda self, n: draws)
    p = SeededStream(0).permutation(draws.size)
    assert np.array_equal(p, np.argsort(draws, kind="stable"))


def test_categorical_frequencies():
    probs = np.array([0.2, 0.3, 0.5])
    n = 100000
    draws = SeededStream(77).categorical(probs, n)
    counts = np.bincount(draws, minlength=3)
    for k in range(3):
        se = math.sqrt(probs[k] * (1 - probs[k]) / n)
        assert abs(counts[k] / n - probs[k]) < 5 * se


def test_cholesky_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(300):
        a = rng.normal(size=(2, 2))
        cov = a @ a.T + 1e-3 * np.eye(2)
        low = cholesky_2x2(cov)
        assert low[0, 1] == 0.0
        assert np.allclose(low @ low.T, cov, rtol=1e-12, atol=1e-15)


def test_cholesky_rejects_indefinite():
    with pytest.raises(InputError):
        cholesky_2x2(np.array([[1.0, 2.0], [2.0, 1.0]]))


# ------------------------------------------- in-place draws, same bits

B = _BLOCK_EVENTS
DRAW_SIZES = [0, 1, B - 1, B, B + 1, 3 * B + 7]


class PlainStream(SeededStream):
    """The draws as plain expressions, each step a fresh array: the
    reference that the in-place transformations must match bit for bit."""

    def uniform01(self, n):
        return (self._raw(n) >> np.uint64(11)) * (2.0 ** -53)

    def open01(self, n):
        return ((self._raw(n) >> np.uint64(11)) + 1.0) * (2.0 ** -53)

    def standard_normal_pairs(self, n_pairs):
        u1 = self.open01(n_pairs)
        u2 = self.uniform01(n_pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * math.pi * u2
        out = np.empty((n_pairs, 2))
        out[:, 0] = r * np.cos(theta)
        out[:, 1] = r * np.sin(theta)
        return out

    def angles(self, n):
        return (self.uniform01(n) - 0.5) * math.pi

    def permutation(self, n):
        u = self.uniform01(n)
        order = np.argsort(u)
        ranked = u[order]
        if np.any(ranked[1:] == ranked[:-1]):
            order = np.argsort(u, kind="stable")
        return order


@pytest.mark.parametrize("n", DRAW_SIZES)
@pytest.mark.parametrize(
    "draw", ["uniform01", "open01", "angles", "standard_normal_pairs",
             "permutation"],
)
def test_draws_keep_the_bits_of_the_plain_expressions(draw, n):
    got_stream, want_stream = SeededStream(40 + n), PlainStream(40 + n)
    got = getattr(got_stream, draw)(n)
    want = getattr(want_stream, draw)(n)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # both streams consumed the same raw words
    assert got_stream._raw(3).tobytes() == want_stream._raw(3).tobytes()


@pytest.mark.parametrize("k", [1, 3, 256, 300])
@pytest.mark.parametrize("n", [1, B + 1, 3 * B + 7])
def test_balanced_assignment_labels_equal_the_plain_expression(k, n):
    want = np.empty(n, dtype=np.int64)
    want[PlainStream(k).permutation(n)] = np.arange(n) % k
    got = _balanced_random_assignment(n, k, SeededStream(k))
    assert got.dtype == (np.uint8 if k <= 256 else np.uint16)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("position", [B - 1, B, 2 * B - 1])
def test_a_tie_across_a_block_edge_takes_the_stable_sort(
    monkeypatch, position
):
    # distinct draws but for one pair at sorted positions position and
    # position + 1; the first straddles the edge of the first block
    n = 3 * B + 7
    ranked = np.arange(n) / n
    ranked[position + 1] = ranked[position]
    draws = ranked[np.random.default_rng(position).permutation(n)]
    monkeypatch.setattr(SeededStream, "uniform01", lambda self, n: draws)
    kinds = []
    original = np.argsort

    def argsort(a, *args, **kwargs):
        kinds.append(kwargs.get("kind"))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", argsort)
    p = SeededStream(0).permutation(n)
    assert kinds == [None, "stable"]
    assert np.array_equal(p, original(draws, kind="stable"))


def test_distinct_draws_skip_the_stable_sort(monkeypatch):
    kinds = []
    original = np.argsort

    def argsort(a, *args, **kwargs):
        kinds.append(kwargs.get("kind"))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", argsort)
    SeededStream(1).permutation(3 * B + 7)
    assert kinds == [None]


@pytest.mark.parametrize("seed", [-1, 0.5, "1", True, None])
def test_a_seed_that_is_not_a_nonnegative_integer_is_refused(seed):
    with pytest.raises(InputError, match="seed must be a nonnegative integer"):
        SeededStream(seed)


def test_a_numpy_integer_seed_draws_as_the_int_does():
    a, b = SeededStream(np.uint64(7)), SeededStream(7)
    assert np.array_equal(a.uniform01(5), b.uniform01(5))


@pytest.mark.parametrize("bad", NOT_INTEGERS)
def test_derive_seed_refuses_what_is_not_an_integer(bad):
    with pytest.raises(InputError, match="^master_seed must be an integer"):
        derive_seed(bad, 0)
    with pytest.raises(InputError, match="^index must be a nonnegative"):
        derive_seed(0, bad)


def test_derive_seed_takes_any_master_and_a_nonnegative_index():
    with pytest.raises(InputError, match="^index must be a nonnegative"):
        derive_seed(0, -1)
    assert derive_seed(-1, 0) != derive_seed(0, 0)
    assert derive_seed(np.int64(-1), np.uint8(3)) == derive_seed(-1, 3)
    assert derive_seed(np.uint64(2**63), 0) == derive_seed(2**63, 0)
