"""Tensor-train chains: TT-SVD initialization, orthogonalization, contraction,
projection, storage accounting, and model persistence.

A chain is an ordered list of 3-mode cores U_k of shape (R_{k-1}, I_k, R_k)
with R_0 = 1. With every core left-orthonormal, the contracted matrix
E = L(U_1 x ... x U_n) has orthonormal columns and spans an R_n-dimensional
subspace of R^{I_1...I_n}.

Three contraction steps pass over a chain: the prefix (:func:`contract_chain`),
the left step X_k^T M through one core (:func:`project_left`) and the suffix
environments (:func:`right_environments`).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ttnpe.errors import ConfigError, DataError, is_int, is_number, load_json, require_finite
from ttnpe.stiefel import feasibility_defect
from ttnpe.tensor_core import left_unfold, vectorize

MODEL_FORMAT_VERSION = 1


@dataclass
class TTChain:
    """Ordered sequence of 3-mode TT cores."""

    cores: list[np.ndarray]
    tau: float | None = field(default=None, compare=False)

    def __post_init__(self):
        if not self.cores:
            raise ValueError("a TT chain needs at least one core")
        self.cores = [np.asarray(c, dtype=np.float64) for c in self.cores]
        for k, c in enumerate(self.cores):
            if c.ndim != 3 or 0 in c.shape:
                raise ValueError(f"core {k} has shape {c.shape}, expected 3 positive dims")
        if self.cores[0].shape[0] != 1:
            raise ValueError("first core must have leading rank 1")
        for k in range(len(self.cores) - 1):
            if self.cores[k].shape[2] != self.cores[k + 1].shape[0]:
                raise ValueError(
                    f"rank mismatch between cores {k} and {k + 1}: "
                    f"{self.cores[k].shape[2]} != {self.cores[k + 1].shape[0]}"
                )

    @property
    def n_modes(self) -> int:
        return len(self.cores)

    @property
    def mode_dims(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(c.shape[2] for c in self.cores)

    @property
    def embedding_dim(self) -> int:
        return self.cores[-1].shape[2]

    def replace_core(self, k: int, core: np.ndarray) -> "TTChain":
        cores = list(self.cores)
        cores[k] = core
        return TTChain(cores, tau=self.tau)

    def orthonormality_defect(self) -> float:
        """Max deviation of any core's left unfolding from orthonormal columns."""
        return max(feasibility_defect(left_unfold(c)) for c in self.cores)


def fix_signs(u: np.ndarray) -> np.ndarray:
    """A copy of ``u`` with each column negated whose first largest-magnitude
    entry is negative; ``u`` itself is never written.

    Singular and eigenvectors are defined up to sign; this fixes the sign so
    decompositions are deterministic across runs.
    """
    first = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    return np.where(first < 0, -u, u)


def read_only(arrays):
    """Clear ``writeable`` on each of ``arrays`` and return them: how every
    held result (a TT-SVD step, a split's data, graph and ``eigh``) is kept."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def check_tt_args(tau, rank_cap, n: int, tau_name: str = "tau") -> list:
    """Check ``tau`` (a real number, not a bool, in (0, 1]) and ``rank_cap`` (None,
    an int >= 1 or a list or tuple of n of those); return the n per-split caps.
    A bad value raises ConfigError naming it, and nothing is rounded or clamped."""
    if not (is_number(tau) and 0.0 < tau <= 1.0):
        raise ConfigError(f"{tau_name} must be a number in (0, 1], got {tau!r}")
    caps = list(rank_cap) if isinstance(rank_cap, (list, tuple)) else [rank_cap] * n
    if len(caps) != n or not all(c is None or is_int(c, 1) for c in caps):
        raise ConfigError(f"rank_cap must be None, an int >= 1 or a list or tuple of "
                          f"{n} of those, got {rank_cap!r}")
    return caps


def tt_svd(dataset: np.ndarray, tau: float, rank_cap=None, steps: dict | None = None) -> TTChain:
    """Sequential-SVD TT decomposition of a dataset stacked along the last mode.

    ``dataset`` has shape (I_1, ..., I_n, N). At each of the n splits,
    singular values sigma_j >= tau * sigma_max of the (R_{k-1} I_k) x rest
    unfolding are kept (at least one). The unfolding's left singular pairs
    are those of R^T, with R the triangular factor of the QR of its
    transpose, so only that at most (R_{k-1} I_k)-square factor is
    decomposed and the wide right factor V^T is never formed. The first R_k
    left vectors, sign-fixed, are core k's left unfolding X_k, and X_k^T
    times the unfolding is carried into the next split. The trailing R_n x N
    coefficient factor is discarded; only the cores (the subspace) are returned.

    ``rank_cap`` caps the rank at each split as :func:`check_tt_args` reads
    it. A bad ``tau`` or ``rank_cap`` raises ConfigError before any work,
    and NaN or infinite data raises DataError.

    Split k's unfolding depends only on the dataset and the rank prefix
    (R_1, ..., R_{k-1}); tau and ``rank_cap`` only pick R_k from its
    singular values. ``steps``, a dict that belongs to this one dataset
    (``solver.SplitCache`` holds one per split), maps each prefix already
    factored to that split's unsliced (U, s), read-only. A held split skips
    its QR and SVD; a new one is factored and held, at most
    (R_{k-1} I_k)^2 + R_{k-1} I_k floats. Every split carries the unfolding
    through the newest core, held or not, so the chain is equal bit for bit
    to a fresh dict's, whatever order the taus come in. With None, a dict
    local to the call stands in, so every split is factored and nothing
    outlives the call.
    """
    dataset = np.asarray(dataset, dtype=np.float64)
    if dataset.ndim < 2 or dataset.size == 0:
        raise DataError("dataset must be a nonempty (I_1, ..., I_n, N) array")
    n = dataset.ndim - 1
    dims = dataset.shape[:n]
    caps = check_tt_args(tau, rank_cap, n)
    require_finite(dataset, "dataset")

    steps = {} if steps is None else steps
    cores = []
    mat = dataset.reshape(dims[0], -1, order="F")  # the unfolding of split k
    for k in range(n):
        if cores:
            mat = project_left(left_unfold(cores[-1]), mat, dims[k])
        prefix = tuple(c.shape[2] for c in cores)
        pair = steps.get(prefix)
        if pair is None:
            # mat = R^T Q^T, so mat and R^T share their left singular pairs.
            tri = np.linalg.qr(mat.T, mode="r")
            pair = steps[prefix] = read_only(np.linalg.svd(tri.T, full_matrices=False)[:2])
        u, s = pair
        r = max(1, int(np.count_nonzero(s >= tau * s[0]))) if s[0] > 0 else 1
        r = r if caps[k] is None else min(r, caps[k])
        cores.append(fix_signs(u[:, :r]).reshape(-1, dims[k], r, order="F"))
    return TTChain(cores, tau=float(tau))


def left_orthogonalize(chain: TTChain) -> TTChain:
    """Return an equivalent chain whose cores all have orthonormal left unfoldings.

    Sweeps QR factorizations left to right, absorbing each R factor into the
    next core. The final R factor is discarded: only the contracted column
    span matters downstream, not tensor values. Numerically rank-deficient
    unfoldings reduce the rank with a warning.
    """
    cores = []
    carry = None
    for k, core in enumerate(chain.cores):
        if carry is not None:
            core = np.tensordot(carry, core, axes=([1], [0]))
        l = left_unfold(core)
        q, r = np.linalg.qr(l)
        # Fix signs so an already-orthonormal input maps to itself.
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        q = q * signs
        r = signs[:, None] * r
        diag = np.abs(np.diag(r))
        tol = max(l.shape) * np.finfo(np.float64).eps * (diag.max() if diag.size else 0.0)
        keep = int(np.count_nonzero(diag > tol))
        keep = max(keep, 1)
        if keep < q.shape[1]:
            warnings.warn(
                f"rank-deficient unfolding at core {k}: reducing rank {q.shape[1]} -> {keep}",
                RuntimeWarning,
            )
            q = q[:, :keep]
            r = r[:keep, :]
        cores.append(q.reshape(core.shape[0], core.shape[1], keep, order="F"))
        carry = r
    return TTChain(cores, tau=chain.tau)


def contract_chain(chain: TTChain, upto: int | None = None) -> np.ndarray:
    """Contract the first ``upto`` cores into the matrix L(U_1 x ... x U_k).

    Uses the Kronecker-structure recursion B_{j+1} = (I_{I_{j+1}} (x) B_j) L(U_{j+1})
    without materializing the Kronecker factor. ``upto=0`` returns the 1x1
    identity (empty prefix). Default contracts the whole chain to E.
    """
    k = chain.n_modes if upto is None else int(upto)
    if not 0 <= k <= chain.n_modes:
        raise ValueError(f"upto must lie in [0, {chain.n_modes}], got {k}")
    b = np.ones((1, 1))
    for core in chain.cores[:k]:
        b = np.einsum("xr,riq->xiq", b, core).reshape(-1, core.shape[2], order="F")
    return b


def project_left(x: np.ndarray, mat: np.ndarray, i_next: int) -> np.ndarray:
    """One left step through the core whose left unfolding is X: X^T M, regrouped
    so the next mode, of size ``i_next``, joins the rank index R_k as rows."""
    return (x.T @ mat).reshape(x.shape[1] * i_next, -1, order="F")


def right_environments(chain: TTChain) -> list[np.ndarray]:
    """Suffix right unfoldings Q_1..Q_n, Q_k = R(cores k+1..n) of shape R_k x (I_{k+1}...I_n R_n)."""
    q = np.eye(chain.embedding_dim)
    envs = [q]
    for core in reversed(chain.cores[1:]):
        q = (left_unfold(core) @ q).reshape(core.shape[0], -1, order="F")
        envs.append(q)
    return envs[::-1]


def project_many(chain: TTChain, samples: np.ndarray) -> np.ndarray:
    """Embed samples stacked along the last mode; returns an (N, R_n) array.
    Samples whose dims differ from the chain's mode dims raise DataError."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape[:-1] != chain.mode_dims:
        raise DataError(f"sample dims {list(samples.shape[:-1])} do not match "
                        f"mode dims {list(chain.mode_dims)}")
    cur = samples.reshape(chain.mode_dims[0], -1, order="F")
    for core, i_next in zip(chain.cores, chain.mode_dims[1:] + (1,)):
        cur = project_left(left_unfold(core), cur, i_next)
    return cur.T


def storage_count(chain: TTChain, n_train: int) -> dict:
    """Parameter counts for storing the subspace factors plus embedded data."""
    factor_params = int(sum(c.size for c in chain.cores))
    embedded_params = int(chain.embedding_dim * n_train)
    return {
        "factor_params": factor_params,
        "embedded_params": embedded_params,
        "total": factor_params + embedded_params,
    }


def compression_ratio(chain: TTChain, n_train: int) -> float:
    """Stored parameters divided by raw storage d * N_tr."""
    d = math.prod(chain.mode_dims)
    return storage_count(chain, n_train)["total"] / float(d * n_train)


def save_chain(chain: TTChain, path) -> None:
    """Persist a chain as a JSON document, built whole before ``path`` is opened;
    numeric payload round-trips bit-exactly."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "mode_dims": list(chain.mode_dims),
        "ranks": list(chain.ranks),
        "tau": chain.tau,
        "cores": [
            {
                "shape": list(c.shape),
                "data": vectorize(c).tolist(),
                "order": "mode1-fastest",
            }
            for c in chain.cores
        ],
    }
    text = json.dumps(doc, separators=(",", ":")) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_chain(path) -> TTChain:
    """Load a chain saved by :func:`save_chain`; an unreadable or malformed model
    raises DataError. Each value is checked by the type a config's would be:
    ``format_version``, ``mode_dims``, ``ranks`` and core ``shape`` entries by
    ``errors.is_int``, core ``data`` entries and a non-null ``tau`` by
    ``errors.is_number``, so no bool, str, float dim or nested list loads."""
    doc = load_json(path, DataError, "model")
    version = doc.get("format_version")
    if not is_int(version, 0) or version != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format_version {version!r}")
    tau = doc.get("tau")
    if tau is not None and not is_number(tau):
        raise DataError(f"{path}: malformed model: tau {tau!r} is not a number")
    try:
        cores = []
        for entry in doc["cores"]:
            if entry.get("order") != "mode1-fastest":
                raise DataError(f"unsupported core data order {entry.get('order')!r}")
            shape = tuple(entry["shape"])
            if not all(is_int(i, 0) for i in shape):
                raise DataError(f"{path}: malformed model: core shape {entry['shape']!r} "
                                "is not a list of ints")
            if not all(is_number(v) for v in entry["data"]):
                raise DataError(f"{path}: malformed model: core data is not a list of numbers")
            data = np.asarray(entry["data"], dtype=np.float64)
            require_finite(data, f"{path}: model core values")
            if data.size != math.prod(shape):
                raise DataError(f"core payload size {data.size} inconsistent with shape {shape}")
            cores.append(data.reshape(shape, order="F"))
        chain = TTChain(cores, tau=tau)
        for key, dims in (("mode_dims", chain.mode_dims), ("ranks", chain.ranks)):
            if not all(is_int(i, 0) for i in doc[key]):
                raise DataError(f"{path}: malformed model: {key} {doc[key]!r} "
                                "is not a list of ints")
            if list(doc[key]) != list(dims):
                raise DataError("model metadata inconsistent with core shapes")
    except DataError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed model: {type(exc).__name__}: {exc}") from exc
    return chain
