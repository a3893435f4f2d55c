"""Independent numerical oracles used by the test suite.

These deliberately avoid the code paths of the library under test:
the eigensolver is a hand-rolled cyclic Jacobi iteration (the library
uses LAPACK), so spectral claims are checked against an unrelated
algorithm, and the Gauss-Legendre reference runs Newton's method in x at
128 bits from numpy's eigensolver-based ``leggauss`` (the library iterates
in θ = arccos x from an asymptotic guess, in double precision).
"""

import csv
import io
import math

import numpy as np

from opframes.hilbert_module import ModuleOperator, ModuleVector
from opframes.reconstruction import CHEBYSHEV_BUDGET, CHEBYSHEV_SLACK


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


def random_operator(descriptor, n, rng, scale=1.0):
    """Random module operator with complex Gaussian blocks conforming to the descriptor."""
    k = descriptor.dim
    blocks = rng.standard_normal((n, n, k, k)) + 1j * rng.standard_normal((n, n, k, k))
    return ModuleOperator(descriptor, scale * (blocks * np.eye(k) if descriptor.is_diagonal else blocks))


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


def dense_solve(s, y):
    """x with x s = y by one np.linalg.solve on the dense (nk, nk) frame operator s;
    y and x are k x nk flattenings."""
    return np.linalg.solve(s.T, y.T).T


def spectral_norm(blocks):
    """The largest spectral norm over slot blocks (m, rows, cols), by one SVD."""
    return float(np.max(np.linalg.svd(blocks, compute_uv=False)[:, 0]))


def frame_iteration(data, y, method, tol):
    """The frame algorithm from the cached eigenpairs of s, one step at a time,
    each step's residual normed by its own SVD: Chebyshev's recurrence on [A, B]
    ("chebyshev"), or the relaxation with step 1/B ("auto") or 2/(A + B)
    ("optimal"), with the a-priori count and the cap of ``reconstruction``.

    Returns (the stack of x, or None when the cap stops it, the residual
    history relative to ||y||, the a-priori count).
    """
    values = data.block_eigenvalues
    lo, hi = float(np.min(values[..., 0])), float(np.max(values[..., -1]))
    if method == "chebyshev":
        theta, delta = (hi + lo) / 2.0, (hi - lo) / 2.0
        root_sum = math.sqrt(hi) + math.sqrt(lo)
        q = 2.0 * delta / root_sum / root_sum
        log_need = math.log(delta) - math.log(theta) - math.log(tol) if delta > 0.0 else -math.inf
        if log_need > 0.0:
            log_need += math.log1p(math.sqrt(-math.expm1(-2.0 * log_need)))
        rate = -math.log(q) if q > 0.0 else math.inf
        predicted = 0 if log_need <= 0.0 else math.ceil(log_need / rate)
    else:
        theta, delta = (hi if method == "auto" else (hi + lo) / 2.0), 0.0
        lam = 1.0 / theta
        q = max(abs(1.0 - lam * lo), abs(1.0 - lam * hi))
        predicted = max(0, math.ceil(-math.log(tol) / -math.log(q)) - 1) if q > 0.0 else 0
    cap = min(predicted + CHEBYSHEV_SLACK, CHEBYSHEV_BUDGET)
    vectors = data.block_eigenvectors
    y_hat, mu = y.slots @ vectors, values[:, None, :]
    y_scale = spectral_norm(y.slots) or 1.0
    x = y_hat / theta
    r = y_hat - x * mu
    history = [spectral_norm(r) / y_scale]
    rho, d = delta / theta, r / theta
    while history[-1] > tol:
        if len(history) > cap:
            return None, history, predicted
        x = x + d
        r = r - d * mu
        history.append(spectral_norm(y_hat - x * mu) / y_scale)
        scale = 2.0 * theta - rho * delta
        rho, rho_prev = delta / scale, rho
        d = (rho * rho_prev) * d + (2.0 / scale) * r
    return ModuleVector.from_slots(y.descriptor, x @ vectors.conj().swapaxes(1, 2)).stack, history, predicted


def fold_integral(weights, samples):
    """sum_i w_i x_i, folded left to right."""
    acc = np.zeros(samples.shape[1:], dtype=np.result_type(samples, float))
    for w, x in zip(weights, samples):
        acc = acc + w * x
    return acc


def weighted_sum(family):
    """The integral of an L2Family, sum_i w_i x_i folded left to right, as a module vector."""
    return ModuleVector(family.descriptor, fold_integral(family.rule.weights, family.samples))


def criterion_terms(weights, a, b, alpha, beta, M, N):
    """(P, G) with P = alpha sum w (aM)(aM)* + beta sum w (bN)(bN)* and
    G = sum w (aM - bN)(aM - bN)*.

    The relative-perturbation hypothesis holds for every x exactly when
    Q = P - G is positive semidefinite; M and N are the (N, nk, nk) node flats.
    """
    scaled_m = a[:, None, None] * M
    scaled_n = b[:, None, None] * N
    diff = scaled_m - scaled_n
    positive = alpha * fold_products(weights, scaled_m, scaled_m)
    positive = positive + beta * fold_products(weights, scaled_n, scaled_n)
    return positive, fold_products(weights, diff, diff)


def criterion_margin(weights, a, b, alpha, beta, M, N):
    """lambda_min(Q) / lambda_max(P) from Jacobi sweeps: the criterion's margin
    relative to the positive part P of Q."""
    positive, gap = criterion_terms(weights, a, b, alpha, beta, M, N)
    return jacobi_eigh(positive - gap)[0][0] / jacobi_eigh(positive)[0][-1]


def sampled_relative_criterion(weights, a, b, alpha, beta, M, N, xs, tol=1e-10):
    """The relative-perturbation hypothesis checked vector by vector.

    For each flattened x (k x nk) the two sides are formed from the node
    samples X M_i and X N_i and compared in the Loewner order with the
    floor tol * (||gap|| + 1).  A pass only covers the vectors given.
    """
    def gram(samples):
        return np.einsum("i,iab,icb->ac", weights, samples, samples.conj())

    for x in xs:
        t = a[:, None, None] * (x @ M)
        lam = b[:, None, None] * (x @ N)
        gap = alpha * gram(t) + beta * gram(lam) - gram(t - lam)
        floor = tol * (np.linalg.norm(gap, 2) + 1.0)
        if np.linalg.norm(gap - gap.conj().T, 2) > floor:
            return False
        if np.linalg.eigvalsh((gap + gap.conj().T) / 2.0)[0] < -floor:
            return False
    return True


def _loewner_leq(a, b, tol):
    """a <= b: b - a Hermitian and positive within the floor tol * (||b - a|| + 1)."""
    gap = b - a
    floor = tol * (np.linalg.norm(gap, 2) + 1.0)
    if np.linalg.norm(gap - gap.conj().T, 2) > floor:
        return False
    return np.linalg.eigvalsh((gap + gap.conj().T) / 2.0)[0] >= -floor


def check_norm_domination(op, x, tol=1e-10):
    """Whether <Mx, Mx> <= ||M||^2 <x, x> in the Loewner order, for a module
    operator M and vector x, from their k x nk and nk x nk flattenings."""
    flat_x, flat_m = x.flatten(), op.flatten()
    flat_y = flat_x @ flat_m
    bound = float(np.linalg.norm(flat_m, 2)) ** 2
    return _loewner_leq(flat_y @ flat_y.conj().T, bound * (flat_x @ flat_x.conj().T), tol)


def node_operator(family, i):
    """Node operator i of a parametric family, sum_d w_i^d C_d summed term by term."""
    w = family.rule.nodes[i]
    blocks = sum(w**d * c for d, c in enumerate(family.coefficients))
    return ModuleOperator(family.descriptor, blocks)


def node_flats(family):
    """(N, nk, nk) node operators: a parametric family's polynomial summed term by
    term at every node (``node_operator``), a sampled family's own."""
    if family.form == "parametric":
        return np.array([node_operator(family, i).flatten() for i in range(len(family))])
    return np.array(family.flats)


def slot_blocks(descriptor, flats):
    """(m, ..., b, b) slot blocks of (..., nk, nk) flattenings: rows and columns
    s, s + k, ... for slot s of a diagonal algebra, the whole flattening if full."""
    k = descriptor.dim
    if descriptor.is_diagonal:
        return np.stack([flats[..., s::k, s::k] for s in range(k)])
    return flats[None]


def node_gram(left, right):
    """The node route for sum_i w_i L_i R_i* per slot: ``fold_products`` of ``node_flats``."""
    return slot_blocks(left.descriptor, fold_products(left.rule.weights, node_flats(left), node_flats(right)))


def node_factor(family):
    """The node route for the tall matrix V stacking sqrt(w_i) M_i* over the nodes,
    per slot, (m, N b, b), from ``node_flats``."""
    blocks = slot_blocks(family.descriptor, node_flats(family))
    tall = np.sqrt(family.rule.weights)[:, None, None] * blocks.conj().swapaxes(-1, -2)
    return tall.reshape(len(blocks), -1, blocks.shape[-1])


def check_frame_inequality(family, lower, upper, xs, tol=1e-10):
    """The sampled frame inequality  lower <x,x> <= <Sx,x> <= upper <x,x>  on the
    given module vectors, with <x,x> = X X* and <Sx,x> = X s X* for the k x nk
    flattening X of x and s folded node by node.  A pass only covers the vectors given."""
    s = fold_products(family.rule.weights, family.flats, family.flats)
    for x in xs:
        flat = x.flatten()
        gram, middle = flat @ flat.conj().T, flat @ s @ flat.conj().T
        if not (_loewner_leq(lower * gram, middle, tol) and _loewner_leq(middle, upper * gram, tol)):
            return False
    return True


def norm_bounds_estimate(family, sample_count, seed=0):
    """Sampled min/max of ||<Sx,x>|| over random unit vectors x (||<x,x>|| = 1).

    The estimates lie inside the optimal bounds and approach them as the
    sample count grows.  Deterministic for a given seed.
    """
    if sample_count < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    s = fold_products(family.rule.weights, family.flats, family.flats)
    k, n = family.descriptor.dim, family.n
    values = []
    for _ in range(sample_count):
        stack = rng.standard_normal((n, k, k)) + 1j * rng.standard_normal((n, k, k))
        if family.descriptor.is_diagonal:
            stack = stack * np.eye(k)
        flat = stack.transpose(1, 0, 2).reshape(k, n * k)
        flat = flat / np.linalg.norm(flat, 2)
        values.append(float(np.linalg.norm(flat @ s @ flat.conj().T, 2)))
    return min(values), max(values)


def csv_report(report):
    """The csv report, row by row through csv.writer: the reference for the
    bulk csv emitter."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["field", "value"])

    def walk(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else key, value[key])
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                walk(f"{prefix}[{i}]", item)
        else:
            writer.writerow([prefix, "" if value is None else value])

    walk("", report)
    return buffer.getvalue()


def table_shape(value):
    """The shape of ``value``, as ``json.loads`` decodes it, if it is a table of
    numbers: a list whose items are all numbers or all tables of one shape,
    none of them empty, and whose numbers are ints or floats (not bools)
    that convert to float.  A number has the shape (); anything else None.
    The reference for the scenario reader's recognition of tables."""
    if type(value) is float:
        return ()
    if type(value) is int:
        try:
            float(value)
        except OverflowError:
            return None
        return ()
    if type(value) is not list:
        return None
    shapes = {table_shape(item) for item in value}
    if len(shapes) != 1 or None in shapes:
        return None
    return (len(value), *shapes.pop())


def gauss_legendre_reference(n, bits=128):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], as two
    ascending lists of mpmath numbers good to far more than 30 digits.

    Newton's method in x on P_n, from the nodes of numpy's ``leggauss``, until
    a step is below 2**-(bits - 24).  P_n and P_{n-1} come from the
    three-term recurrence in integers scaled by 2**bits, so each step is exact
    but for one rounding of 2**-bits (mpmath numbers would take seconds per
    pass at n = 1024); the Newton update and the weights
    2 / ((1 - x^2) P_n'(x)^2) are taken in mpmath at bits + 32 bits.  Needs
    mpmath, so the tests that call it skip without it.
    """
    import mpmath
    from numpy.polynomial.legendre import leggauss

    with mpmath.workprec(bits + 32):
        xs = [mpmath.mpf(v) for v in leggauss(n)[0][n // 2:]]  # the half in [0, 1)
        if n % 2:
            xs[0] = mpmath.mpf(0)
        while True:
            fixed = np.array([int(mpmath.nint(mpmath.ldexp(x, bits))) for x in xs], dtype=object)
            previous, current = np.full(len(xs), 1 << bits, dtype=object), fixed.copy()
            for k in range(1, n):
                previous, current = current, (((2 * k + 1) * fixed * current >> bits) - k * previous) // (k + 1)
            slopes, steps = [], []
            for x, pn, pm in zip(xs, current, previous):
                pn, pm = mpmath.ldexp(int(pn), -bits), mpmath.ldexp(int(pm), -bits)
                slopes.append(n * (x * pn - pm) / (x * x - 1))
                steps.append(pn / slopes[-1])
            xs = [x - step for x, step in zip(xs, steps)]
            if max(abs(step) for step in steps) <= mpmath.ldexp(1, 24 - bits):
                break
        weights = [2 / ((1 - x * x) * slope**2) for x, slope in zip(xs, slopes)]
        nodes = [-x for x in reversed(xs[n % 2:])] + xs
        return nodes, list(reversed(weights[n % 2:])) + weights
