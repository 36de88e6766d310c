import struct

import numpy as np
import pytest

from kppca import KernelSpec, SymMatrix, TrainingSet, sym_eig
from kppca.dual import DualModel


def random_psd(rng, n, rank=None):
    """Random symmetric PSD matrix with controllable rank."""
    rank = n if rank is None else rank
    b = rng.standard_normal((n, rank))
    return SymMatrix(b @ b.T)


def toy_dual_model(n=8, q=3, sigma2=0.05, seed=0, spectrum=None):
    """Hand-built dual model with a strictly positive spectrum.

    Unlike fit_dual this does not center anything, so the full-rank
    conditions of the sampler can be exercised.
    """
    rng = np.random.default_rng(seed)
    if spectrum is None:
        spectrum = np.sort(rng.uniform(0.5, 5.0, n))[::-1]
    spectrum = np.asarray(spectrum, dtype=float)
    qmat, _ = np.linalg.qr(rng.standard_normal((n, n)))
    kc = SymMatrix((qmat * spectrum) @ qmat.T)
    eig = sym_eig(kc)
    ts = TrainingSet(rng.standard_normal((n, 2)))
    return DualModel(sigma2=sigma2, q=q, eigenvalues=eig.eigenvalues, e=eig.eigenvectors, kc=kc,
                     spec=KernelSpec("linear"), ts=ts)


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


def rewrite_section(path, tag, payload):
    """Replace the payload of one section of a saved model file, keeping the
    container framing intact."""
    blob = path.read_bytes()
    out, pos = bytearray(blob[:11]), 11
    while pos < len(blob):
        name = blob[pos : pos + 4]
        (length,) = struct.unpack("<Q", blob[pos + 4 : pos + 12])
        body = payload if name == tag.encode("ascii") else blob[pos + 12 : pos + 12 + length]
        out += name + struct.pack("<Q", len(body)) + body
        pos += 12 + length
    path.write_bytes(bytes(out))


def pack_matrix(m):
    m = np.asarray(m, dtype=float)
    return struct.pack("<II", *m.shape) + m.astype("<f8").tobytes()


def pack_vector(v):
    v = np.asarray(v, dtype=float)
    return struct.pack("<I", v.size) + v.astype("<f8").tobytes()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
