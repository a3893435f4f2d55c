"""Independent numerical oracles used by the test suite.

These deliberately avoid the code paths of the library under test:
the eigensolver is a hand-rolled cyclic Jacobi iteration (the library
uses LAPACK), so spectral claims are checked against an unrelated
algorithm.
"""

import numpy as np


def jacobi_eigh(matrix, tol=1e-14, max_sweeps=100):
    """Eigen-decomposition of a complex Hermitian matrix by cyclic Jacobi rotations.

    Returns (eigenvalues ascending, eigenvectors as columns).  Each 2x2
    subproblem is reduced to a real rotation by factoring out the phase of
    the off-diagonal entry.
    """
    a = np.array(matrix, dtype=np.complex128)
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    scale = max(1.0, float(np.linalg.norm(np.diag(a))))
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.abs(a - np.diag(np.diag(a))) ** 2))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                phase = apq / abs(apq)
                app = a[p, p].real
                aqq = a[q, q].real
                tau = (aqq - app) / (2.0 * abs(apq))
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # unitary 2x2: first absorb the phase, then rotate
                u = np.array([[c * phase, s * phase], [-s, c]], dtype=np.complex128)
                cols = a[:, [p, q]] @ u
                a[:, p] = cols[:, 0]
                a[:, q] = cols[:, 1]
                rows = u.conj().T @ a[[p, q], :]
                a[p, :] = rows[0]
                a[q, :] = rows[1]
                vcols = v[:, [p, q]] @ u
                v[:, p] = vcols[:, 0]
                v[:, q] = vcols[:, 1]
    values = np.diag(a).real
    order = np.argsort(values)
    return values[order], v[:, order]


def random_hermitian(rng, k, scale=1.0):
    m = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return scale * (m + m.conj().T) / 2.0


def random_psd(rng, k, scale=1.0):
    m = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return scale * (m @ m.conj().T)


def psd_within(matrix, tol):
    """PSD check for the flattened order, via the Jacobi oracle."""
    herm = (matrix + matrix.conj().T) / 2.0
    values, _ = jacobi_eigh(herm)
    return values[0] >= -tol


def fold_products(weights, left, right):
    """sum_i w_i L_i R_i*, folded node by node with explicit index sums.

    With left = right = the flats this is the frame operator; with the
    dual family on the left it is the dual resolution of the identity.
    """
    acc = np.zeros((left.shape[1], right.shape[1]), dtype=np.complex128)
    for w, lmat, rmat in zip(weights, left, right):
        acc = acc + w * np.einsum("ab,cb->ac", lmat, rmat.conj())
    return acc


def fold_integral(weights, samples):
    """sum_i w_i x_i, folded left to right."""
    acc = np.zeros(samples.shape[1:], dtype=np.result_type(samples, float))
    for w, x in zip(weights, samples):
        acc = acc + w * x
    return acc
