"""Independent reference for the CLI's outputs, in numpy only.

Nothing here imports kppca: the reference fits the same RBF model from the
training points by its definition (centered Gram, full eigh, closed-form
sigma2) and every check compares a file the CLI wrote against it.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

CHUNK = 4096  # query columns per block, to keep the reference's memory small


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def read_rows(path) -> np.ndarray:
    """A CSV written by the CLI (one header row) as a (rows, cols) array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Reference:
    """The model fit from (train, gamma, q) by its definition.

    With a = E_q diag(s), s_p = sqrt(1/N - sigma2/lambda_p), the MAP latent
    code is h_p = s_p e_p.k_c / (s_p^2 lambda_p + sigma2) and the
    reconstruction K_c a h = sum_p e_p lambda_p s_p h_p. The latter does not
    depend on eigenvector signs.
    """

    def __init__(self, train: np.ndarray, gamma: float, q: int):
        self.x = train
        self.n = train.shape[0]
        self.gamma = gamma
        self.q = q
        self._mu = train.mean(axis=0)
        k = self.kernel(train)
        self._col_means = k.mean(axis=0)
        self._grand_mean = k.mean()
        kc = k - k.mean(axis=1, keepdims=True) - self._col_means + self._grand_mean
        vals, vecs = np.linalg.eigh((kc + kc.T) / 2.0)
        vals, vecs = vals[::-1], vecs[:, ::-1]
        lam = np.where(vals < 1e-12 * max(1.0, vals[0]), 0.0, vals)
        self.lam = lam
        self.e = vecs[:, :q].copy()
        self.sigma2 = float(lam[q:].sum() / (self.n * (self.n - q)))
        self.explained_variance = float(lam[:q].sum() / lam.sum())
        self.s = np.sqrt(np.maximum(1.0 / self.n - self.sigma2 / lam[:q], 0.0))

    def kernel(self, y: np.ndarray) -> np.ndarray:
        """Uncentered N x M RBF kernel block against the rows of y."""
        a = self.x - self._mu
        b = y - self._mu
        d2 = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
        return np.exp(-np.maximum(d2, 0.0) / (2.0 * self.gamma**2))

    def centered(self, y: np.ndarray) -> np.ndarray:
        kv = self.kernel(y)
        return kv - kv.mean(axis=0) - self._col_means[:, None] + self._grand_mean

    def latent(self, kc: np.ndarray) -> np.ndarray:
        lam_q = self.lam[: self.q]
        return (self.s / (self.s**2 * lam_q + self.sigma2))[:, None] * (self.e.T @ kc)

    def reconstruct(self, y: np.ndarray, epsilon: float) -> np.ndarray:
        """Preimages (M x d_in) of the MAP reconstructions of the rows of y,
        by the clipped kernel smoother with stabilizer epsilon."""
        kc = self.centered(y)
        w = self.e @ ((self.lam[: self.q] * self.s)[:, None] * self.latent(kc))
        w = np.maximum(w, 0.0)
        return (w.T @ self.x) / (w.sum(axis=0) + epsilon)[:, None]


def _shape_error(out, rows, cols):
    if out.shape != (rows, cols):
        return f"shape {out.shape}, expected {(rows, cols)}"
    if not np.all(np.isfinite(out)):
        return "non-finite entries"
    return None


def check_fit_meta(ref: Reference, path) -> Check:
    with open(path, encoding="utf-8") as fh:
        meta = json.load(fh)
    errors = []
    if meta.get("q") != ref.q:
        errors.append(f"q={meta.get('q')} expected {ref.q}")
    for key, want in (("sigma2", ref.sigma2), ("explained_variance", ref.explained_variance)):
        got = meta.get(key)
        if not isinstance(got, (int, float)) or abs(got - want) > 1e-7 * abs(want) + 1e-300:
            errors.append(f"{key}={got!r} expected {want!r}")
    return Check("fit.meta", not errors, "; ".join(errors) or "q, sigma2, explained_variance match")


def check_latent(ref: Reference, queries: np.ndarray, path) -> Check:
    out = read_rows(path)
    bad = _shape_error(out, queries.shape[0], ref.q)
    if bad:
        return Check("project.latent", False, bad)
    worst = 0.0
    for lo in range(0, queries.shape[0], CHUNK):
        want = ref.latent(ref.centered(queries[lo : lo + CHUNK])).T
        got = out[lo : lo + CHUNK]
        signs = np.where(np.sum(got * want, axis=0) < 0.0, -1.0, 1.0)
        scale = np.abs(want).max(axis=0) + 1e-12
        worst = max(worst, float((np.abs(got - signs * want) / scale).max()))
    return Check("project.latent", worst <= 1e-6, f"max relative error {worst:.3g} (tol 1e-6)")


def check_reconstruction(ref: Reference, queries: np.ndarray, epsilon: float, path) -> Check:
    out = read_rows(path)
    bad = _shape_error(out, queries.shape[0], queries.shape[1])
    if bad:
        return Check("reconstruct.points", False, bad)
    worst = 0.0
    for lo in range(0, queries.shape[0], CHUNK):
        want = ref.reconstruct(queries[lo : lo + CHUNK], epsilon)
        worst = max(worst, float(np.abs(out[lo : lo + CHUNK] - want).max()))
    tol = 1e-7 * (float(np.abs(ref.x).max()) + 1.0)
    return Check("reconstruct.points", worst <= tol, f"max abs error {worst:.3g} (tol {tol:.3g})")


def recon_mse(queries: np.ndarray, path) -> float:
    """Mean squared input-space distance between queries and their reconstructions."""
    return float(np.mean(np.sum((read_rows(path) - queries) ** 2, axis=1)))


def check_kernel_samples(ref: Reference, count: int, path) -> Check:
    """Kernel samples live in the centered space, so each sums to about 0."""
    out = read_rows(path)
    bad = _shape_error(out, count, ref.n)
    if bad:
        return Check("generate.kernel_sums", False, bad)
    rel = np.abs(out.sum(axis=1)) / (np.abs(out).sum(axis=1) + 1e-300)
    worst = float(rel.max())
    return Check("generate.kernel_sums", worst <= 1e-8, f"max |sum|/sum|k| {worst:.3g} (tol 1e-8)")


def check_generated_box(ref: Reference, count: int, path) -> Check:
    """With clipped weights and epsilon > 0 a preimage is a sub-convex
    combination of training points, so it lies in the box spanned by the
    training points and the origin."""
    out = read_rows(path)
    bad = _shape_error(out, count, ref.x.shape[1])
    if bad:
        return Check("generate.box", False, bad)
    lo = np.minimum(ref.x.min(axis=0), 0.0)
    hi = np.maximum(ref.x.max(axis=0), 0.0)
    slack = 1e-9 * (hi - lo + 1.0)
    outside = int(np.count_nonzero(np.any((out < lo - slack) | (out > hi + slack), axis=1)))
    return Check("generate.box", outside == 0, f"{outside} of {count} points outside the box")


def check_identical(name: str, first_dir, repeat_dir) -> Check:
    """A repeat with the same flags writes byte-identical output files; the
    .meta.json sidecars carry a timestamp and are skipped."""

    def files(d):
        return sorted(f for f in os.listdir(d) if not f.endswith(".meta.json"))

    a, b = files(first_dir), files(repeat_dir)
    if a != b:
        return Check(f"{name}.repeat_identical", False, f"files {a} vs {b}")
    differ = []
    for f in a:
        with open(os.path.join(first_dir, f), "rb") as fa, open(os.path.join(repeat_dir, f), "rb") as fb:
            if fa.read() != fb.read():
                differ.append(f)
    return Check(f"{name}.repeat_identical", not differ,
                 f"differ: {differ}" if differ else f"{len(a)} files byte-identical")
