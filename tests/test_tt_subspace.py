import json

import numpy as np
import pytest
from conftest import brute_tt_svd, random_orthonormal_chain, same_bits, spy_qr
from hypothesis import given, settings
from hypothesis import strategies as st

import ttnpe
from ttnpe.errors import ConfigError, DataError
from ttnpe.tensor_core import kronecker, left_unfold, merge_product, vectorize
from ttnpe.tt_subspace import (
    TTChain,
    compression_ratio,
    contract_chain,
    fix_signs,
    left_orthogonalize,
    load_chain,
    project_left,
    project_many,
    save_chain,
    storage_count,
    tt_svd,
)


def direct_contract(chain):
    """Contract a chain by explicit merging products (independent oracle)."""
    t = chain.cores[0]
    for core in chain.cores[1:]:
        t = merge_product(t, core, [t.ndim], [1])
    return t.reshape(-1, t.shape[-1], order="F")


class TestTTSVD:
    def test_rank_one_dataset(self, rng):
        factors = [rng.standard_normal(s) for s in (2, 3, 2, 5)]
        data = factors[0]
        for f in factors[1:]:
            data = np.multiply.outer(data, f)
        chain = tt_svd(data, 0.5)
        assert chain.ranks == (1, 1, 1)
        e = contract_chain(chain)
        for i in range(5):
            v = vectorize(data[..., i])
            residual = v - e @ (e.T @ v)
            assert np.linalg.norm(residual) < 1e-10

    def test_full_rank_reconstruction(self, rng):
        data = rng.standard_normal((2, 2, 2, 4))
        chain = tt_svd(data, 1e-14)
        assert chain.ranks[0] == 2
        assert chain.ranks[1] == 4
        e = contract_chain(chain)
        d_mat = data.reshape(-1, 4, order="F")
        assert np.max(np.abs(e @ (e.T @ d_mat) - d_mat)) < 1e-10

    def test_tau_one_gives_rank_one(self, rng):
        chain = tt_svd(rng.standard_normal((3, 3, 6)), 1.0)
        assert chain.ranks == (1, 1)

    def test_cores_left_orthonormal(self, rng):
        chain = tt_svd(rng.standard_normal((3, 2, 4, 10)), 0.1)
        assert chain.orthonormality_defect() < 1e-10

    def test_rank_monotone_in_tau(self, rng):
        data = rng.standard_normal((3, 2, 4, 10))
        loose = tt_svd(data, 0.05).ranks
        tight = tt_svd(data, 0.5).ranks
        assert all(a >= b for a, b in zip(loose, tight))

    def test_rank_cap(self, rng):
        chain = tt_svd(rng.standard_normal((3, 3, 12)), 1e-12, rank_cap=2)
        assert all(r <= 2 for r in chain.ranks)

    def test_invalid_tau(self, rng):
        data = rng.standard_normal((2, 2, 3))
        for tau in (0.0, -1.0, 1.5, True, "0.3", float("nan")):
            with pytest.raises(ConfigError, match="tau"):
                tt_svd(data, tau)

    @pytest.mark.parametrize("cap", [2.5, 0, -3, True, "3", [2, 2, 2], (2, 2.0)], ids=repr)
    def test_invalid_rank_cap(self, rng, cap):
        with pytest.raises(ConfigError, match="rank_cap"):
            tt_svd(rng.standard_normal((3, 3, 12)), 0.3, rank_cap=cap)

    def test_empty_dataset(self):
        with pytest.raises(DataError):
            tt_svd(np.empty((2, 0)), 0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_dataset(self, value):
        # the SVD used to fail to converge with a raw LinAlgError
        with pytest.raises(DataError, match="dataset contain NaN or infinite values"):
            ttnpe.tt_svd(np.full((2, 3, 4), value), 0.5)

    def test_deterministic(self, rng):
        data = rng.standard_normal((3, 2, 4, 8))
        a = tt_svd(data, 0.2)
        b = tt_svd(data, 0.2)
        for ca, cb in zip(a.cores, b.cores):
            assert np.array_equal(ca, cb)


def loop_fix_signs(u):
    """The per-column rule, in place: negate each column whose first
    largest-magnitude entry is negative."""
    for c in range(u.shape[1]):
        j = int(np.argmax(np.abs(u[:, c])))
        if u[j, c] < 0:
            u[:, c] = -u[:, c]
    return u


class TestFixSigns:
    """``fix_signs`` returns a new array with the loop's bits and never writes its input."""

    def matrix(self, rng, case):
        u = rng.standard_normal((9, 12))[:, :5]  # a column slice, as tt_svd takes one
        if case == "tied":  # largest magnitudes tie with opposite signs, in both orders
            u = 0.1 * u
            u[[2, 6], 0] = [-3.0, 3.0]
            u[[2, 6], 1] = [3.0, -3.0]
        elif case == "zero":
            u[:, 1] = 0.0
            u[:, 3] = -0.0
        elif case == "single":
            u = u[:, :1].copy()
            u[4, 0] = -10.0
        elif case == "read-only":
            u = u.copy()
            u.flags.writeable = False
        return u

    @pytest.mark.parametrize("case", ["random", "tied", "zero", "single", "read-only"])
    def test_copy_with_the_loop_bits(self, rng, case):
        flipped = []
        for _ in range(5):
            u = self.matrix(rng, case)
            before = u.copy()
            want = loop_fix_signs(u.copy())
            got = fix_signs(u)
            assert not np.shares_memory(got, u)
            assert same_bits(got, want) and same_bits(u, before)
            flipped.extend(np.signbit(want[0]) != np.signbit(u[0]))
        if case == "tied":  # the first of the tied entries decides
            assert flipped[0::5] == [True] * 5 and flipped[1::5] == [False] * 5
        if case == "random":  # the draws flip some columns and keep others
            assert any(flipped) and not all(flipped)


class TestHeldSteps:
    """``tt_svd`` with ``steps``: each rank prefix of one dataset is factored once."""

    TAUS = (0.5, 0.35, 0.25, 0.18, 0.12, 0.08)
    CAPS = (None, 2, [2, None, 3, None])

    def dataset(self, rng):
        """Every mode's entries decay by halves, so the taus pick ranks from
        (1, 1, 1, 1) to (3, 9, 16, 21), some sharing a prefix."""
        dims = (3, 4, 3, 4)
        data = rng.standard_normal(dims + (30,))
        for k, i in enumerate(dims):
            data = data * (0.5 ** np.arange(i)).reshape((1,) * k + (i,) + (1,) * (4 - k))
        return data

    @pytest.mark.parametrize("order", ["forward", "reversed", "shuffled"])
    def test_equal_bits_to_fresh_calls(self, rng, monkeypatch, order):
        data = self.dataset(rng)
        runs = [(tau, cap) for cap in self.CAPS for tau in self.TAUS]
        want = [tt_svd(data, tau, rank_cap=cap) for tau, cap in runs]
        picks = {"forward": range(len(runs)), "reversed": range(len(runs))[::-1],
                 "shuffled": rng.permutation(len(runs))}[order]
        steps = {}
        calls = spy_qr(monkeypatch)
        got = {i: tt_svd(data, runs[i][0], rank_cap=runs[i][1], steps=steps) for i in picks}
        prefixes = {chain.ranks[:k] for chain in want for k in range(4)}
        assert len(calls) == len(prefixes) == len(steps) < 4 * len(runs)
        assert set(steps) == prefixes
        assert not any(a.flags.writeable for pair in steps.values() for a in pair)
        assert len({chain.ranks for chain in want}) > 6  # the runs pick many rank tuples
        for i, (tau, _) in enumerate(runs):
            assert got[i].tau == tau
            assert all(same_bits(a, b) for a, b in zip(got[i].cores, want[i].cores))

    def test_no_steps_holds_nothing_between_calls(self, rng, monkeypatch):
        data = self.dataset(rng)
        calls = spy_qr(monkeypatch)
        for _ in range(2):
            tt_svd(data, 0.25)
        assert len(calls) == 8

    def test_failed_split_holds_nothing(self, rng):
        steps = {}
        with pytest.raises(DataError, match="NaN or infinite"):
            tt_svd(np.full((2, 3, 4), np.nan), 0.5, steps=steps)
        assert steps == {}


def low_rank_dataset(rng, dims, n_samples, rank):
    pixels = rng.standard_normal((int(np.prod(dims)), rank))
    return (pixels @ rng.standard_normal((rank, n_samples))).reshape(dims + (n_samples,), order="F")


class TestTTSVDOracle:
    """The R-factor splits against full SVDs of every unfolding."""

    CASES = {
        "random": (lambda rng: rng.standard_normal((3, 4, 5, 20)), 0.1, None),
        "random_5mode": (lambda rng: rng.standard_normal((2, 3, 2, 3, 30)), 0.05, None),
        "rank_deficient": (lambda rng: low_rank_dataset(rng, (3, 4, 5), 9, 3), 0.01, None),
        "all_zero": (lambda rng: np.zeros((3, 4, 5, 7)), 0.3, None),
        "rank_cap_int": (lambda rng: rng.standard_normal((3, 4, 5, 20)), 1e-12, 2),
        "rank_cap_list": (lambda rng: rng.standard_normal((3, 4, 5, 20)), 0.05, [2, None, 3]),
        "tau_one": (lambda rng: rng.standard_normal((3, 4, 5, 20)), 1.0, None),
        # last split is 60 x 7: more rows than columns (N < R_2 * I_3)
        "tall_last_split": (lambda rng: rng.standard_normal((3, 4, 5, 7)), 1e-14, None),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_full_svd_oracle(self, rng, case):
        make, tau, cap = self.CASES[case]
        data = make(rng)
        chain = tt_svd(data, tau, rank_cap=cap)
        oracle = brute_tt_svd(data, tau, rank_cap=cap)
        assert chain.ranks == oracle.ranks
        for core, expected in zip(chain.cores, oracle.cores):
            assert core.shape == expected.shape
            assert np.max(np.abs(core - expected)) < 1e-12

    def test_cases_reach_their_regimes(self, rng):
        ranks = {name: tt_svd(make(rng), tau, rank_cap=cap).ranks
                 for name, (make, tau, cap) in self.CASES.items()}
        assert ranks["rank_deficient"][-1] == 3
        assert ranks["all_zero"] == ranks["tau_one"] == (1, 1, 1)
        assert ranks["rank_cap_int"] == (2, 2, 2)
        assert ranks["rank_cap_list"][0] == 2 and ranks["rank_cap_list"][2] <= 3
        assert ranks["tall_last_split"] == (3, 12, 7)


@st.composite
def tt_datasets(draw):
    """A (I_1, ..., I_n, N) dataset of a drawn kind, with a tau and a rank cap."""
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    n_samples = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gaussian", "low_rank", "grid255", "zeros"]))
    shape = dims + (n_samples,)
    if kind == "gaussian":
        data = rng.standard_normal(shape)
    elif kind == "low_rank":
        data = low_rank_dataset(rng, dims, n_samples, draw(st.integers(1, 3)))
    elif kind == "grid255":
        data = rng.integers(0, 256, shape) / 255.0
    else:
        data = np.zeros(shape)
    tau = draw(st.floats(1e-12, 1.0))
    cap = draw(st.one_of(st.none(), st.integers(1, 6)))
    return data, tau, cap


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


@PROPERTY_SETTINGS
@given(tt_datasets())
def test_tt_svd_cores_left_orthonormal(case):
    data, tau, cap = case
    chain = tt_svd(data, tau, rank_cap=cap)
    assert chain.orthonormality_defect() < 1e-12
    assert chain.embedding_dim <= min(int(np.prod(data.shape[:-1])), data.shape[-1])


@PROPERTY_SETTINGS
@given(tt_datasets())
def test_project_many_equals_materialized_product(case):
    data, tau, cap = case
    chain = tt_svd(data, tau, rank_cap=cap)
    coords = project_many(chain, data)
    assert coords.shape == (data.shape[-1], chain.embedding_dim)
    flat = data.reshape(-1, data.shape[-1], order="F")
    tol = 1e-12 * np.maximum(1.0, np.linalg.norm(flat, axis=0))  # per sample
    assert np.all(np.abs(coords - (contract_chain(chain).T @ flat).T) <= tol[:, None])


class TestLeftOrthogonalize:
    def projector(self, chain):
        e = contract_chain(chain)
        return e @ e.T

    def test_orthonormal_input_projector_unchanged(self, rng):
        chain = random_orthonormal_chain(rng, (2, 3, 2), (2, 3, 2))
        out = left_orthogonalize(chain)
        assert out.orthonormality_defect() < 1e-12
        assert np.max(np.abs(self.projector(out) - self.projector(chain))) < 1e-10

    def test_scaled_cores(self, rng):
        chain = random_orthonormal_chain(rng, (2, 3, 2), (2, 3, 2))
        scaled = TTChain([3.0 * c for c in chain.cores])
        out = left_orthogonalize(scaled)
        assert out.orthonormality_defect() < 1e-10
        assert np.max(np.abs(self.projector(out) - self.projector(chain))) < 1e-10

    def test_prefix_contractions_orthonormal(self, rng):
        cores = [rng.standard_normal(s) for s in [(1, 3, 2), (2, 2, 3), (3, 4, 2)]]
        out = left_orthogonalize(TTChain(cores))
        for j in range(1, out.n_modes + 1):
            b = contract_chain(out, upto=j)
            assert np.max(np.abs(b.T @ b - np.eye(b.shape[1]))) < 1e-10

    def test_rank_deficient_reduces_with_warning(self, rng):
        core1 = np.zeros((1, 3, 2))
        core1[0, :, 0] = rng.standard_normal(3)
        core1[0, :, 1] = 2.0 * core1[0, :, 0]  # dependent columns
        core2 = rng.standard_normal((2, 2, 2))
        with pytest.warns(RuntimeWarning, match="rank-deficient"):
            out = left_orthogonalize(TTChain([core1, core2]))
        assert out.ranks[0] == 1


class TestContractChain:
    def test_single_core(self, rng):
        chain = random_orthonormal_chain(rng, (4,), (2,))
        assert np.allclose(contract_chain(chain), left_unfold(chain.cores[0]))

    def test_orthonormal_columns(self, rng):
        chain = random_orthonormal_chain(rng, (2, 3, 2), (2, 3, 2))
        e = contract_chain(chain)
        assert np.max(np.abs(e.T @ e - np.eye(e.shape[1]))) < 1e-10

    def test_matches_merge_product_oracle(self, rng):
        chain = random_orthonormal_chain(rng, (2, 3, 2, 2), (2, 3, 2, 2))
        assert np.max(np.abs(contract_chain(chain) - direct_contract(chain))) < 1e-12

    def test_kronecker_recursion_literal(self, rng):
        # B_{j+1} = (I (x) B_j) L(U_{j+1}) with materialized Kronecker factors
        chain = random_orthonormal_chain(rng, (2, 3, 2), (2, 3, 2))
        b = left_unfold(chain.cores[0])
        for core in chain.cores[1:]:
            b = kronecker(np.eye(core.shape[1]), b) @ left_unfold(core)
        assert np.max(np.abs(b - contract_chain(chain))) < 1e-12


class TestProject:
    def test_sample_in_subspace(self, rng):
        chain = random_orthonormal_chain(rng, (2, 3, 2), (2, 3, 2))
        e = contract_chain(chain)
        a = rng.standard_normal((e.shape[1], 4))
        samples = (e @ a).reshape(chain.mode_dims + (4,), order="F")
        assert np.max(np.abs(project_many(chain, samples) - a.T)) < 1e-10

    def test_orthogonal_sample_maps_to_zero(self, rng):
        chain = random_orthonormal_chain(rng, (2, 2, 2), (1, 1, 1))
        e = contract_chain(chain)
        v = rng.standard_normal((e.shape[0], 3))
        v -= e @ (e.T @ v)
        out = project_many(chain, v.reshape(chain.mode_dims + (3,), order="F"))
        assert np.max(np.abs(out)) < 1e-10

    def test_matches_materialized_product(self, rng):
        chain = random_orthonormal_chain(rng, (3, 2, 2), (2, 2, 3))
        samples = rng.standard_normal(chain.mode_dims + (5,))
        expected = contract_chain(chain).T @ samples.reshape(-1, 5, order="F")
        assert np.max(np.abs(project_many(chain, samples) - expected.T)) < 1e-12

    def test_project_left_joins_next_mode_to_rank(self, rng):
        core = rng.standard_normal((2, 3, 4))  # (R_{k-1}, I_k, R_k)
        m = rng.standard_normal((2, 3, 5, 7))  # (R_{k-1}, I_k, I_{k+1}, rest)
        out = project_left(left_unfold(core), m.reshape(6, -1, order="F"), 5)
        expected = np.einsum("abr,abjc->rjc", core, m)  # (R_k, I_{k+1}, rest)
        assert np.max(np.abs(out - expected.reshape(20, 7, order="F"))) < 1e-12

    def test_shape_mismatch(self, rng):
        chain = random_orthonormal_chain(rng, (2, 2), (2, 2))
        with pytest.raises(DataError, match=r"sample dims \[2, 3\] do not match mode dims \[2, 2\]"):
            project_many(chain, rng.standard_normal((2, 3, 4)))

    def test_full_rank_isometry(self, rng):
        data = rng.standard_normal((2, 2, 2, 12))
        chain = tt_svd(data, 1e-14)
        assert chain.embedding_dim == 8
        coords = project_many(chain, data)
        flat = data.reshape(8, 12, order="F").T
        for i in range(12):
            for j in range(12):
                orig = np.linalg.norm(flat[i] - flat[j])
                emb = np.linalg.norm(coords[i] - coords[j])
                assert abs(orig - emb) < 1e-9


class TestStorage:
    def test_hand_arithmetic(self):
        cores = [np.zeros((1, 4, 2)), np.zeros((2, 4, 2))]
        counts = storage_count(TTChain(cores), 100)
        assert counts["factor_params"] == 24
        assert counts["embedded_params"] == 200
        assert counts["total"] == 224

    def test_rank_one(self):
        cores = [np.zeros((1, 2, 1)), np.zeros((1, 2, 1))]
        assert storage_count(TTChain(cores), 0)["factor_params"] == 4

    def test_ratio_monotone_in_embedding_dim(self, rng):
        data = rng.standard_normal((2, 2, 2, 10))
        rhos = []
        for r_n in (1, 2, 4):
            chain = tt_svd(data, 1e-14, rank_cap=[8, 8, r_n])
            rhos.append(compression_ratio(chain, 10))
        assert rhos[0] < rhos[1] < rhos[2]


class TestPersistence:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        chain = random_orthonormal_chain(rng, (2, 3, 2), (2, 2, 2))
        p1 = tmp_path / "model.json"
        p2 = tmp_path / "model2.json"
        save_chain(chain, p1)
        loaded = load_chain(p1)
        for a, b in zip(chain.cores, loaded.cores):
            assert np.array_equal(a, b)
        save_chain(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_unknown_version(self, rng, tmp_path):
        chain = random_orthonormal_chain(rng, (2, 2), (1, 1))
        path = tmp_path / "model.json"
        save_chain(chain, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="format_version"):
            load_chain(path)

    def test_loaded_chain_projects_identically(self, rng, tmp_path):
        chain = random_orthonormal_chain(rng, (3, 2, 2), (2, 2, 3))
        path = tmp_path / "model.json"
        save_chain(chain, path)
        loaded = load_chain(path)
        samples = rng.standard_normal(chain.mode_dims + (3,))
        assert np.max(np.abs(project_many(chain, samples) - project_many(loaded, samples))) < 1e-15

    def test_failed_encoding_keeps_previous_model(self, rng, tmp_path):
        # the encoder raises on a tau JSON cannot hold; the text is built
        # before the file is opened, so the saved model is not truncated
        chain = random_orthonormal_chain(rng, (2, 2), (2, 1))
        path = tmp_path / "model.json"
        save_chain(chain, path)
        before = path.read_bytes()
        with pytest.raises(TypeError, match="not JSON serializable"):
            save_chain(TTChain(chain.cores, tau=object()), path)
        assert path.read_bytes() == before

    def test_text_is_the_streamed_encoding(self, rng, tmp_path):
        chain = tt_svd(rng.standard_normal((2, 3, 2, 7)), 0.2)
        path = tmp_path / "model.json"
        save_chain(chain, path)
        doc = json.loads(path.read_text())
        with open(tmp_path / "streamed.json", "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
        assert path.read_bytes() == (tmp_path / "streamed.json").read_bytes()
