"""Independent reference implementations that the program is checked against.

The Koenig-Smolin decode here works on int8 numpy vectors, slot by slot, in
the same interleaved layout as ``stabcore`` (qubit q's x in slot 2q, its z in
slot 2q+1); ``stabcore`` decodes on bit-packed ints.  The dense oracle loop
evolves one pure branch at a time, built with ``np.kron``; ``oracle`` evolves
all branches as one array.  Both pairs must agree exactly.
``symplectic_matrix`` puts the program's decode in the reference's grouped
matrix form.
"""

import math

import numpy as np

from bornbox import stabcore as sc
from bornbox.oracle import _apply_gate, _bloch_eigvec
from bornbox.stabcore import (CliffordTableau, PauliOperator, _rand_below,
                              symplectic_group_order)


def _int_to_bits(v: int, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=np.int8)
    for j in range(n):
        out[j] = (v >> j) & 1
    return out


def _sym_inner(u: np.ndarray, v: np.ndarray) -> int:
    return int(np.sum(u[0::2] * v[1::2]) + np.sum(u[1::2] * v[0::2])) & 1


def _transvect(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (v + _sym_inner(h, v) * h) % 2


def _pair_inner(a: tuple[int, int], b: tuple[int, int]) -> int:
    return (a[0] * b[1] + a[1] * b[0]) & 1


def _find_transvections(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h1, h2) with Tv_h1(Tv_h2(x)) == y, for nonzero x, y."""
    nn = x.size
    zero = np.zeros(nn, dtype=np.int8)
    if np.array_equal(x, y):
        return zero, zero
    if _sym_inner(x, y) == 1:
        return (x + y) % 2, zero

    # Need z with <x,z> = <y,z> = 1; then Tv_{x+z} after Tv_{z+y} maps x to y.
    n = nn // 2
    z = np.zeros(nn, dtype=np.int8)
    for q in range(n):
        xq = (int(x[2 * q]), int(x[2 * q + 1]))
        yq = (int(y[2 * q]), int(y[2 * q + 1]))
        if xq != (0, 0) and yq != (0, 0):
            for cand in ((0, 1), (1, 0), (1, 1)):
                if _pair_inner(xq, cand) == 1 and _pair_inner(yq, cand) == 1:
                    z[2 * q], z[2 * q + 1] = cand
                    return (x + z) % 2, (z + y) % 2
    qx = next(q for q in range(n) if (x[2 * q], x[2 * q + 1]) != (0, 0))
    qy = next(q for q in range(n) if (y[2 * q], y[2 * q + 1]) != (0, 0))
    for cand in ((0, 1), (1, 0), (1, 1)):
        if _pair_inner((int(x[2 * qx]), int(x[2 * qx + 1])), cand) == 1:
            z[2 * qx], z[2 * qx + 1] = cand
            break
    for cand in ((0, 1), (1, 0), (1, 1)):
        if _pair_inner((int(y[2 * qy]), int(y[2 * qy + 1])), cand) == 1:
            z[2 * qy], z[2 * qy + 1] = cand
            break
    return (x + z) % 2, (z + y) % 2


def symplectic_interleaved(index: int, n: int) -> np.ndarray:
    """Interleaved-layout symplectic matrix for an index in [0, order)."""
    nn = 2 * n
    s = (1 << nn) - 1
    k = (index % s) + 1
    index //= s

    f1 = _int_to_bits(k, nn)
    e1 = np.zeros(nn, dtype=np.int8)
    e1[0] = 1
    h1, h2 = _find_transvections(e1, f1)

    bits = _int_to_bits(index % (1 << (nn - 1)), nn - 1)
    index //= 1 << (nn - 1)

    eprime = e1.copy()
    for j in range(2, nn):
        eprime[j] = bits[j - 1]
    h0 = _transvect(h1, _transvect(h2, eprime))
    # bits[0] selects one of the two cosets of images of the second basis
    # vector; it toggles whether the final f1-transvection is applied.
    flast = np.zeros(nn, dtype=np.int8) if bits[0] == 1 else f1

    if n > 1:
        rest = symplectic_interleaved(index, n - 1)
        g = np.zeros((nn, nn), dtype=np.int8)
        g[:2, :2] = np.eye(2, dtype=np.int8)
        g[2:, 2:] = rest
    else:
        g = np.eye(2, dtype=np.int8)

    for j in range(nn):
        col = g[:, j]
        col = _transvect(h2, col)
        col = _transvect(h1, col)
        col = _transvect(h0, col)
        col = _transvect(flast, col)
        g[:, j] = col
    return g


def _grouped(f: np.ndarray, n: int) -> np.ndarray:
    perm = [2 * q for q in range(n)] + [2 * q + 1 for q in range(n)]
    return f[np.ix_(perm, perm)]


def reference_symplectic_matrix(index: int, n: int) -> np.ndarray:
    """Grouped-layout matrix (x columns, then z columns) from the int8 decode."""
    return _grouped(symplectic_interleaved(index, n), n)


def symplectic_matrix(index: int, n: int) -> np.ndarray:
    """Grouped-layout matrix from the program's bit-packed decode."""
    if not 0 <= index < symplectic_group_order(n):
        raise ValueError("symplectic index out of range")
    cols = sc._symplectic_columns(index, n)
    f = np.array([[(col >> i) & 1 for col in cols] for i in range(2 * n)],
                 dtype=np.int8)
    return _grouped(f, n)


def reference_random_clifford(n: int, rng: np.random.Generator) -> CliffordTableau:
    """Uniform tableau read from the int8 decode's grouped matrix, consuming
    the rng stream in the same calls as ``stabcore.random_clifford``."""
    index = _rand_below(rng, symplectic_group_order(n))
    mat = reference_symplectic_matrix(index, n)
    signs = rng.integers(0, 2, size=2 * n)
    rows = []
    for r in range(2 * n):
        x = z = 0
        for c in range(n):
            if mat[r, c]:
                x |= 1 << c
            if mat[r, n + c]:
                z |= 1 << c
        rows.append(PauliOperator(n, x, z, -1 if signs[r] else 1))
    return CliffordTableau(n, tuple(rows[:n]), tuple(rows[n:]))


def reference_prod_probabilities(circuit) -> np.ndarray:
    """|amplitude|^2 over all n qubits, one pure branch at a time."""
    branches = [(1.0, np.array([1.0], complex))]
    for vec in circuit.state.bloch:
        s = math.sqrt(sum(c * c for c in vec))
        if s > 1.0 - 1e-12:
            entries = [(1.0, _bloch_eigvec(vec, s))]
        elif s < 1e-15:
            entries = [(0.5, np.array([1.0, 0.0], complex)),
                       (0.5, np.array([0.0, 1.0], complex))]
        else:
            unit = tuple(c / s for c in vec)
            anti = tuple(-c for c in unit)
            entries = [((1.0 + s) / 2.0, _bloch_eigvec(unit, 1.0)),
                       ((1.0 - s) / 2.0, _bloch_eigvec(anti, 1.0))]
        branches = [(w * wq, np.kron(vq, psi))
                    for (w, psi) in branches for (wq, vq) in entries]
    idx = np.arange(1 << circuit.n)
    probs = np.zeros(1 << circuit.n, dtype=float)
    for weight, psi in branches:
        for gate in circuit.gates:
            psi = _apply_gate(psi, gate, idx)
        probs += weight * np.abs(psi) ** 2
    return probs
