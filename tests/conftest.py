import struct
import zlib

import numpy as np
import pytest

from kppca import (
    KernelSpec,
    TrainingSet,
    center_gram,
    fit_dual,
    gram,
    samples_from_noise,
    tail_factor,
    top_eig,
    two_arcs,
)


def random_psd(rng, n, rank=None):
    """Random symmetric PSD matrix with controllable rank."""
    rank = n if rank is None else rank
    b = rng.standard_normal((n, rank))
    return b @ b.T


def bump_images(n, side=6, seed=0):
    """n side x side images, each one or two Gaussian bumps, as an
    (n, side**2) array: inputs whose RBF Gram matrix is positive definite."""
    rng = np.random.default_rng(seed)
    grid = np.arange(side, dtype=float)
    out = np.empty((n, side * side))
    for i in range(n):
        img = np.zeros((side, side))
        for _ in range(1 + i % 2):
            cy, cx = rng.uniform(1.0, side - 2.0, 2)
            width = rng.uniform(0.8, 1.6)
            img += np.outer(np.exp(-0.5 * ((grid - cy) / width) ** 2),
                            np.exp(-0.5 * ((grid - cx) / width) ** 2))
        out[i] = img.ravel() / img.max()
    return out


def arcs_model(n=60, gamma=2.0, seed=0, **choice):
    """A model of two-arcs points (q=3 unless q or sigma2 is given); its RBF
    Gram matrix is rank deficient at double precision, so the sampler takes
    the pivoted Cholesky factor."""
    return fit_dual(KernelSpec("rbf", gamma), TrainingSet.from_columns(two_arcs(n, seed=seed)),
                    **(choice or {"q": 3}))


def bumps_model(n=10, gamma=1.5, seed=0, **choice):
    """A model of bump images (q=3 unless q or sigma2 is given); its RBF
    Gram matrix is positive definite, so the sampler takes LAPACK's
    Cholesky factor."""
    return fit_dual(KernelSpec("rbf", gamma), TrainingSet(bump_images(n, seed=seed)),
                    **(choice or {"q": 3}))


def centered_gram(m):
    """Oracle: the model's centered Gram matrix, rebuilt from its training set."""
    return center_gram(gram(m.spec, m.ts))


def full_spectrum(m):
    """Oracle: the full eigendecomposition of the model's centered Gram matrix,
    clamped at the rank floor of the Gram matrix's scale, as fit_dual does."""
    k = gram(m.spec, m.ts)
    return top_eig(center_gram(k), m.n, k.diagonal().max())


def marginal_covariance(m):
    """Oracle: E diag(c^2) E^T over the full spectrum, c_p = lambda_p / sqrt(N)
    for the q retained components and sigma sqrt(lambda_p) beyond."""
    eig = full_spectrum(m)
    lam, e = eig.eigenvalues, eig.eigenvectors
    c2 = np.concatenate([lam[: m.q] ** 2 / m.n, m.sigma2 * lam[m.q :]])
    return (e * c2) @ e.T


def sampler_map(m):
    """The sampler's noise-to-sample matrix [E_q diag(lambda_q / sqrt(N)), tail]
    and the tail's width r."""
    tail = tail_factor(m)
    return samples_from_noise(m, np.eye(m.q + tail.shape[1]), tail), tail.shape[1]


def align_columns(reference, candidate):
    """Flip candidate columns so they match the sign of reference columns."""
    signs = np.sign(np.sum(reference * candidate, axis=0))
    signs[signs == 0] = 1.0
    return candidate * signs, signs


def kpca_oracle_reconstruct(kc_entries, q, kvec):
    """Independent classical kernel PCA reconstruction: project a centered
    kernel vector onto the leading q eigenvectors of the centered Gram
    matrix, computed with a different solver than the library uses."""
    import scipy.linalg

    w, v = scipy.linalg.eigh(kc_entries)
    order = np.argsort(w)[::-1]
    lead = v[:, order[:q]]
    return lead @ (lead.T @ kvec)


def model_sections(blob):
    """[tag, payload] of each section of a (version 2) model file, in file
    order."""
    out, pos = [], 11
    while pos < len(blob):
        (length,) = struct.unpack("<Q", blob[pos + 4 : pos + 12])
        out.append([blob[pos : pos + 4], blob[pos + 12 : pos + 12 + length]])
        pos += 12 + length + 4
    return out


def framed(sections):
    """The bytes of a sequence of [tag, payload] sections, each with its
    length and the CRC32 of tag, length and payload."""
    out = b""
    for tag, payload in sections:
        head = tag + struct.pack("<Q", len(payload))
        out += head + payload + struct.pack("<I", zlib.crc32(head + payload))
    return out


def rewrite_section(path, tag, payload):
    """Replace the payload of one section of a saved (version 2) model file,
    keeping the container framing and the CRC32 of every section intact."""
    blob = path.read_bytes()
    sections = [[name, payload if name == tag.encode("ascii") else body] for name, body in model_sections(blob)]
    path.write_bytes(blob[:11] + framed(sections))


def pack_matrix(m):
    m = np.asarray(m, dtype=float)
    return struct.pack("<II", *m.shape) + m.astype("<f8").tobytes()


def pack_vector(v):
    v = np.asarray(v, dtype=float)
    return struct.pack("<I", v.size) + v.astype("<f8").tobytes()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
