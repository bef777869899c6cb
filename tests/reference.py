"""Independent reference implementations that the program is checked against,
and cross-checks that only the tests call.

The Koenig-Smolin decode here works on int8 numpy vectors, slot by slot, in
the same interleaved layout as ``stabcore`` (qubit q's x in slot 2q, its z in
slot 2q+1), and draws one tableau at a time through numpy's per-call
stream; ``stabcore`` replays that stream from bulk word draws and decodes a
whole stack on uint64 column arrays.  The Koenig-Smolin digits here come
from one ``divmod`` loop per index; ``stabcore`` splits the whole stack one
level at a time on an object array.  The dense oracle loop evolves one pure
branch at a time, built with ``np.kron``, one array operation per gate kind;
``oracle`` evolves all branches of a stack of gate lists, given as masked
steps (``gate_steps`` lays gate lists out so), as one array, composing the
gates between two H's into one index and phase table.  The steps' runs here
are built one step at a time; ``oracle`` makes every word in one pass and
XORs each step that joins a run into its run's row.  The anti-concentration p_x here are drawn,
swept and evolved one chunk at a time; ``experiments`` sweeps and evolves a
group of chunks at once.
The tableau of a gate list, the gate-list synthesis and the pull-back of one Pauli through a gate
list here conjugate one row at a time through the per-Pauli gate rule
``_gate_conjugate_bits``; ``stabcore`` updates packed column words through
its word rule, all rows at once, sweeps a whole stack of tableaus at once
and pulls a whole batch of Paulis back in one pass.  Each pair must agree exactly.  ``symplectic_matrix`` puts the
program's decode in the reference's grouped matrix form.

The rest are cross-checks kept out of the package: the tableau route to
``U^dag P U``, the Pauli product, the row-pair symplectic check, the
Clifford group order, pure-state simulation, the brute-force X-program
enumerator and the per-draw product-input estimator, the sampling
estimator's chunked means with the kernel run on every draw (the program
reads each draw from a table of its 2^f distinct values when that table is
no larger than the draws or one chunk), a frequency estimator
over any sampler, a pattern's probability summed through a 2^k index mask,
outcome draws as strings, and the exact L1 between multi-round
transcripts.

``reference_parse_gate`` reads a gate line token by token through
``int``, with no qubit table; the parser, which looks the tokens up in a
per-parse table first, must accept and refuse the same lines, with the
same messages.

The per-draw cdf and chain samplers walk one draw at a time over string
prefixes through a handle's ``prefix_probability(bits)``; ``PerPrefix``
gives a distribution that query form, read off its cumulative table one
string at a time.  ``samplers`` draws a whole chunk at once, one
``prefixes`` matrix per level, and must agree with them exactly, stream
included.
"""

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations

import numpy as np

from bornbox import experiments, polybox
from bornbox import stabcore as sc
from bornbox.circuits import (CircuitSyntaxError, IqpCircuit, OutcomePattern,
                              ProdCircuit, check_pattern_length)
from bornbox.oracle import (ExactDistribution, _bloch_eigvec,
                            _check_size, iqp_statevector, l1_distance,
                            prod_branches, prod_probabilities_many)
from bornbox.polybox import Estimate, hoeffding_samples
from bornbox.stabcore import (CliffordTableau, GateApp, PauliOperator,
                              _hermitian_from_xz, _parity, _xz_phase, apply_tableau, inverse_tableau,
                              product_expectation, symplectic_group_order)

from helpers import index_to_outcome, pattern_matches

_SQ = math.sqrt(0.5)


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


def reference_ks_digits(indices, n: int) -> np.ndarray:
    """(T, n, 2) Koenig-Smolin digits, one divmod per level per index."""
    digits = []
    for index in indices:
        row = []
        for j in range(n, 0, -1):
            index, f = divmod(index, (1 << 2 * j) - 1)
            row += (f + 1, index & ((1 << 2 * j - 1) - 1))
            index >>= 2 * j - 1
        digits.append(row)
    return np.array(digits, np.uint64).reshape(len(indices), n, 2)


def symplectic_matrix(index: int, n: int) -> np.ndarray:
    """Grouped-layout matrix from the program's bit-packed decode."""
    if not 0 <= index < symplectic_group_order(n):
        raise ValueError("symplectic index out of range")
    cols = sc._decode_columns([index], n)[0].tolist()
    f = np.array([[(col >> i) & 1 for col in cols] for i in range(2 * n)],
                 dtype=np.int8)
    return _grouped(f, n)


def _rand_below(rng: np.random.Generator, bound: int) -> int:
    """Uniform int below bound by rejection, one numpy call per attempt."""
    nbits = bound.bit_length()
    nbytes = (nbits + 7) // 8
    mask = (1 << nbits) - 1
    while True:
        raw = rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()
        v = int.from_bytes(raw, "little") & mask
        if v < bound:
            return v


def reference_random_clifford(n: int, rng: np.random.Generator) -> CliffordTableau:
    """Uniform tableau read from the int8 decode's grouped matrix, one draw
    at a time through numpy calls per index attempt and for the signs;
    ``stabcore.random_clifford_words`` replays this stream from bulk draws
    of 32-bit words."""
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


def _apply_gate(psi: np.ndarray, gate: GateApp, idx: np.ndarray) -> np.ndarray:
    """The gate applied to every state along the last axis of psi."""
    name = gate.name
    if name == "H":
        m = 1 << gate.qubits[0]
        sign = 1.0 - 2.0 * ((idx & m) != 0)
        return _SQ * (psi[..., idx & ~m] + sign * psi[..., idx | m])
    if name == "S":
        m = 1 << gate.qubits[0]
        out = psi.copy()
        out[..., (idx & m) != 0] *= 1j
        return out
    if name == "X":
        return psi[..., idx ^ (1 << gate.qubits[0])]
    if name == "Z":
        m = 1 << gate.qubits[0]
        out = psi.copy()
        out[..., (idx & m) != 0] *= -1.0
        return out
    if name == "CNOT":
        c, t = gate.qubits
        return psi[..., idx ^ (((idx >> c) & 1) << t)]
    if name == "CZ":
        c, t = gate.qubits
        both = ((idx >> c) & (idx >> t) & 1) != 0
        out = psi.copy()
        out[..., both] *= -1.0
        return out
    raise ValueError(f"unknown gate {name!r}")


def gate_steps(gate_lists) -> list[tuple]:
    """Ragged gate lists as the masked steps of ``stabcore.synthesis_steps``:
    gate k of every list is a step at position k, one step per gate kind
    there, masked to the lists that have that kind at k.  A qubit the
    kind's gates share is an int, otherwise an array over the lists."""
    steps = []
    for k in range(max(map(len, gate_lists), default=0)):
        at_k = {}
        for j, gates in enumerate(gate_lists):
            if k < len(gates):
                at_k.setdefault(gates[k].name, []).append((j, gates[k]))
        for name, members in at_k.items():
            mask = np.zeros(len(gate_lists), bool)
            mask[[j for j, _ in members]] = True
            qubits = []
            for pos in (0, -1):
                values = {g.qubits[pos] for _, g in members}
                if len(values) == 1:
                    qubits.append(values.pop())
                else:
                    column = np.zeros(len(gate_lists), np.intp)
                    for j, g in members:
                        column[j] = g.qubits[pos]
                    qubits.append(column)
            steps.append((name, *qubits, mask))
    return steps


def reference_runs(steps) -> list[list]:
    """Masked steps as [name, ctl, word] runs, one step at a time: the word
    holds, per list, the bit of the step's qubit (its target, for CNOT and
    CZ) where the mask is set, ctl is the control's bit or None, and a
    CNOT or CZ on the int control of the run before it is XORed into that
    run."""
    runs: list[list] = []
    last = None
    for name, a, b, mask in steps:
        two = name in ("CNOT", "CZ")
        word = np.where(mask, np.left_shift(1, b if two else a), 0)
        key = (name, a) if two and isinstance(a, int) else None
        if key is not None and key == last:
            runs[-1][2] ^= word
            continue
        last = key
        runs.append([name, (1 << a) if two else None, word])
    return runs


def reference_clifford_output_probabilities(n: int, trials: int, state,
                                            seed: int, outcome_index: int = 0,
                                            threads: int = 1) -> np.ndarray:
    """p_x chunk by chunk: each chunk's stack is drawn, swept and evolved on
    its own."""
    def work(rng, size: int) -> np.ndarray:
        steps = sc.synthesis_steps(n, *sc.random_clifford_words(n, size, rng))
        return prod_probabilities_many(state, steps, size)[:, outcome_index]

    return np.concatenate(polybox._chunked_map(
        work, trials, experiments._TRIAL_CHUNK, np.random.default_rng(seed),
        threads))


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


def _gate_conjugate_bits(name: str, qubits: tuple[int, ...], x: int, z: int,
                         sign: int) -> tuple[int, int, int]:
    """Bits and sign of g P g^dag for elementary gate g, Hermitian convention."""
    if name == "H":
        b = 1 << qubits[0]
        xq, zq = x & b, z & b
        if xq and zq:
            sign = -sign
        x = (x & ~b) | zq
        z = (z & ~b) | xq
    elif name == "S":
        b = 1 << qubits[0]
        if (x & b) and (z & b):
            sign = -sign
        z ^= x & b
    elif name == "X":
        if z & (1 << qubits[0]):
            sign = -sign
    elif name == "Z":
        if x & (1 << qubits[0]):
            sign = -sign
    elif name == "CNOT":
        c, t = qubits
        xc, zc = (x >> c) & 1, (z >> c) & 1
        xt, zt = (x >> t) & 1, (z >> t) & 1
        if xc and zt and (xt ^ zc ^ 1):
            sign = -sign
        if xc:
            x ^= 1 << t
        if zt:
            z ^= 1 << c
    elif name == "CZ":
        c, t = qubits
        xc, zc = (x >> c) & 1, (z >> c) & 1
        xt, zt = (x >> t) & 1, (z >> t) & 1
        if xc and xt and (zc ^ zt):
            sign = -sign
        if xc:
            z ^= 1 << t
        if xt:
            z ^= 1 << c
    else:
        raise ValueError(f"unknown gate {name!r}")
    return x, z, sign


def reference_pull_back(gates, p: PauliOperator) -> PauliOperator:
    """U^dag P U for U = g_G ... g_1, one Pauli at a time: P is conjugated
    by g_G^dag down to g_1^dag through the per-Pauli rule, where
    ``stabcore.pull_back_words`` takes a batch through the word rule.
    S^dag = Z S, so S^dag P S is conjugation by S followed by Z."""
    x, z, sign = p.x, p.z, p.sign
    for gate in reversed(gates):
        if max(gate.qubits) >= p.n:
            raise ValueError("gate qubit outside operator range")
        x, z, sign = _gate_conjugate_bits(gate.name, gate.qubits, x, z, sign)
        if gate.name == "S":
            x, z, sign = _gate_conjugate_bits("Z", gate.qubits, x, z, sign)
    return PauliOperator(p.n, x, z, sign)


def reference_parse_gate(toks: list[str], n: int, line: int) -> GateApp:
    """The gate on a split ``gate`` line of an n-qubit circuit, each qubit
    token read with ``int`` and the gate built through GateApp's checks."""
    if len(toks) < 3:
        raise CircuitSyntaxError("gate needs a name and qubits", line)
    name = toks[1]
    if name not in sc.GATE_ARITY:
        raise CircuitSyntaxError(f"unknown gate {name!r}", line)
    qs = []
    for tok in toks[2:]:
        try:
            qs.append(int(tok))
        except ValueError:
            raise CircuitSyntaxError(f"bad qubit index {tok!r}", line) from None
    try:
        gate = GateApp(name, qs)
    except ValueError as exc:
        raise CircuitSyntaxError(str(exc), line) from exc
    if max(qs) >= n:
        raise CircuitSyntaxError("gate qubit out of range", line)
    return gate


def reference_tableau_from_gates(n: int, gates) -> CliffordTableau:
    """The tableau of ``stabcore.tableau_from_gates``, conjugating each
    generator's image row by row through every gate."""
    rows = [[1 << q, 0, 1] for q in range(n)] + [[0, 1 << q, 1] for q in range(n)]
    for g in gates:
        for row in rows:
            row[:] = _gate_conjugate_bits(g.name, g.qubits, *row)
    images = [PauliOperator(n, *row) for row in rows]
    return CliffordTableau(n, tuple(images[:n]), tuple(images[n:]))


def reference_synthesize_gates(t: CliffordTableau) -> tuple[GateApp, ...]:
    """The gate list that ``stabcore.synthesis_steps`` emits for a stack of
    one tableau, sweeping it row at a time: every gate conjugates each of
    the 2n rows in turn."""
    n = t.n
    rows = [[p.x, p.z, p.sign] for p in (t.x_images + t.z_images)]
    applied: list[tuple[str, tuple[int, ...]]] = []

    def do(name: str, *qubits: int):
        for row in rows:
            row[0], row[1], row[2] = _gate_conjugate_bits(
                name, qubits, row[0], row[1], row[2])
        applied.append((name, qubits))

    def do_swap(a: int, b: int):
        do("CNOT", a, b)
        do("CNOT", b, a)
        do("CNOT", a, b)

    for i in range(n):
        a = rows[i]
        high = ~((1 << i) - 1)
        if not a[0] & high:
            j = (a[1] & high & -(a[1] & high)).bit_length() - 1
            do("H", j)
        pivot = (rows[i][0] & high & -(rows[i][0] & high)).bit_length() - 1
        if pivot != i:
            do_swap(i, pivot)
        rest = rows[i][0] & ~((1 << (i + 1)) - 1)
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            do("CNOT", i, j)
        rest = rows[i][1] & ~((1 << (i + 1)) - 1)
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            do("CZ", i, j)
        if (rows[i][1] >> i) & 1:
            do("S", i)

        # Same sweep for the Z_i image, flipped into the X picture around i.
        do("H", i)
        rest = rows[n + i][0] & ~((1 << (i + 1)) - 1)
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            do("CNOT", i, j)
        rest = rows[n + i][1] & ~((1 << (i + 1)) - 1)
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            do("CZ", i, j)
        if (rows[n + i][1] >> i) & 1:
            do("S", i)
        do("H", i)

        if rows[i][2] == -1:
            do("Z", i)
        if rows[n + i][2] == -1:
            do("X", i)

    for r, row in enumerate(rows):
        if row != ([1 << r, 0, 1] if r < n else [0, 1 << (r - n), 1]):
            raise AssertionError("tableau sweep failed to reach identity")

    out: list[GateApp] = []
    for name, qubits in reversed(applied):
        out.append(GateApp(name, qubits))
        if name == "S":
            out.append(GateApp("Z", qubits))
    return tuple(out)


# ---------------------------------------------------------------------------
# Pauli algebra and the Clifford group
# ---------------------------------------------------------------------------

def commutes(a: PauliOperator, b: PauliOperator) -> bool:
    if a.n != b.n:
        raise ValueError("qubit-count mismatch")
    return _parity((a.x & b.z) ^ (a.z & b.x)) == 0


def rows_are_symplectic(rows: list[PauliOperator]) -> bool:
    """The generators' commutation pattern, checked on the 2n image rows pair
    by pair: rows r and n + r anticommute, every other pair commutes."""
    n = len(rows) // 2
    return all(commutes(rows[a], rows[b]) == (b != a + n)
               for a, b in combinations(range(2 * n), 2))


def pauli_product(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """a*b for commuting Hermitian Paulis; anticommuting inputs would give a
    non-Hermitian (imaginary) result and are rejected."""
    if a.n != b.n:
        raise ValueError("operator sizes differ")
    k = (_xz_phase(a) + _xz_phase(b) + 2 * _parity(a.z & b.x)) % 4
    return _hermitian_from_xz(a.n, k, a.x ^ b.x, a.z ^ b.z)


def conjugate_pauli(t: CliffordTableau, p: PauliOperator) -> PauliOperator:
    """U^dag P U for the tableau of U."""
    return apply_tableau(inverse_tableau(t), p)


def clifford_group_order(n: int) -> int:
    """Number of distinct tableaus (Clifford group modulo global phase)."""
    return symplectic_group_order(n) << (2 * n)


# ---------------------------------------------------------------------------
# Pure-state simulation and outcome draws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateVector:
    """Dense pure state; amplitude index bit i is qubit i."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.n,):
            raise ValueError("amplitude vector has wrong length")
        if abs(np.abs(amps).dot(np.abs(amps)) - 1.0) > 1e-10:
            raise ValueError("state vector is not normalized")
        object.__setattr__(self, "amplitudes", amps)


def statevector(circuit) -> StateVector:
    """Pure-state simulation; product inputs must have unit Bloch vectors."""
    if isinstance(circuit, IqpCircuit):
        return StateVector(circuit.n, iqp_statevector(circuit))
    if isinstance(circuit, ProdCircuit):
        _check_size(circuit.n)
        branches = prod_branches(circuit.state)
        if len(branches) != 1:
            raise ValueError("mixed product input has no state vector")
        psi = branches[0][1]
        idx = np.arange(1 << circuit.n)
        for gate in circuit.gates:
            psi = _apply_gate(psi, gate, idx)
        return StateVector(circuit.n, psi)
    raise TypeError("state vectors exist only for prod and iqp circuits")


def masked_probability(dist: ExactDistribution,
                       pattern: OutcomePattern) -> float:
    """The pattern's probability as the sum of the entries that a boolean
    mask over all 2^k big-endian indices selects."""
    k = pattern.k
    idx = np.arange(1 << k)
    mask = np.ones(1 << k, dtype=bool)
    for pos, bit in pattern.fixed:
        mask &= ((idx >> (k - 1 - pos)) & 1) == bit
    return float(dist.probs[mask].sum())


def sample_outcomes(dist: ExactDistribution, rng: np.random.Generator,
                    size: int) -> list[str]:
    return [index_to_outcome(int(i), dist.k)
            for i in dist.sample_indices(rng, size)]


def transcript_l1(alice_rounds, bob_rounds) -> float:
    """Exact L1 between full multi-round transcripts (product measures),
    by exhaustive enumeration; meant for small round counts and k."""
    if len(alice_rounds) != len(bob_rounds):
        raise ValueError("round counts differ")
    pa = reduce(np.kron, [d.probs for d in alice_rounds])
    pb = reduce(np.kron, [d.probs for d in bob_rounds])
    return l1_distance(pa, pb)


# ---------------------------------------------------------------------------
# Estimator cross-checks
# ---------------------------------------------------------------------------

DEFAULT_COLUMN_LIMIT = 24


def prod_single_sample(circuit: ProdCircuit, pattern: OutcomePattern,
                       rng: np.random.Generator) -> float:
    """One unbiased draw in [-1, 1]: each fixed position contributes its
    back-propagated signed Z with probability 1/2, identity otherwise.  The
    Z's are pulled back one at a time by ``reference_pull_back``."""
    check_pattern_length(pattern, circuit.k)
    factors = [reference_pull_back(circuit.gates, PauliOperator(
        circuit.n, 0, 1 << pos, 1 - 2 * bit)) for pos, bit in pattern.fixed]
    acc = PauliOperator(circuit.n, 0, 0)
    for factor in factors:
        if rng.integers(0, 2):
            acc = pauli_product(acc, factor)
    return product_expectation(circuit.state, acc)


def alpha_weight_enumerator(matrix, theta: float,
                            column_limit: int = DEFAULT_COLUMN_LIMIT) -> complex:
    """(1/2^c) * sum over v in {0,1}^c of exp(-2i*theta*wt(Mv)) for an
    m x c binary matrix M.  Brute-force enumeration over all 2^c column
    combinations, chunked; columns above column_limit are refused."""
    m = np.atleast_2d(np.asarray(matrix, dtype=np.int64))
    if m.size and not np.isin(m, (0, 1)).all():
        raise ValueError("matrix entries must be 0/1")
    cols = m.shape[1]
    if cols > column_limit:
        raise ValueError(f"{cols} columns exceeds enumeration limit "
                         f"{column_limit}")
    total = 0.0 + 0.0j
    block = 1 << 16
    shifts = np.arange(cols, dtype=np.uint64)
    for lo in range(0, 1 << cols, block):
        hi = min(lo + block, 1 << cols)
        v = ((np.arange(lo, hi, dtype=np.uint64)[:, None] >> shifts) &
             np.uint64(1)).astype(np.int64)
        wt = ((v @ m.T) & 1).sum(axis=1)
        total += np.exp(-2j * theta * wt).sum()
    return complex(total / (1 << cols))


def odd_overlap_rows(matrix: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, int]:
    """Rows of the program matrix with odd inner product against r, plus
    their count.  One estimator draw for restriction bits s equals
    Re[(-1)**(r.s) * 1j**count * alpha_weight_enumerator(rows, pi/2)]; the
    program evaluates that closed form without enumeration."""
    m = np.atleast_2d(np.asarray(matrix, dtype=np.int64))
    r = np.asarray(r, dtype=np.int64)
    odd = (m @ r) & 1
    sub = m[odd == 1]
    return sub, int(odd.sum())


def frequency_polybox(sampler, circuit, pattern: OutcomePattern,
                      eps: float, delta: float,
                      rng: np.random.Generator) -> Estimate:
    """Estimate by observed frequency: run the sampler at internal accuracy
    eps/2 and count hits; sampler(circuit, eps_internal, count, rng) must
    return outcome strings."""
    check_pattern_length(pattern, circuit.k)
    # frequencies span [0, 1]: the range-2 count at eps is the range-1
    # count at eps/2
    s = hoeffding_samples(eps, delta)
    outcomes = sampler(circuit, eps / 2.0, s, rng)
    hits = sum(1 for o in outcomes if pattern_matches(pattern, o))
    return Estimate(hits / s, eps, delta, s)


# ---------------------------------------------------------------------------
# Per-draw sampling estimator
# ---------------------------------------------------------------------------

def per_draw_sampled(box, positions, bits, eps: float, delta: float,
                     rng: np.random.Generator):
    """(s, per-row means) as ``_SamplingPolyBox._sampled`` gives them, with
    every draw of every chunk put through the family kernel on its own row
    instead of read from a table of the kernel's 2^f distinct draws."""
    s = hoeffding_samples(eps, delta)
    sums = polybox._batched_sums(box.values, box.circuit, positions, bits)
    f = len(positions)

    def part(rng_i, count):
        return sums(rng_i.integers(0, 2, size=(count, f), dtype=np.int64))
    return s, polybox._means(polybox._chunked_map(
        part, s, polybox._CHUNK, rng, box.threads), s)


# ---------------------------------------------------------------------------
# Per-draw cdf and chain samplers
# ---------------------------------------------------------------------------

class PerPrefix:
    """Joint prefix marginals of dist, one string at a time."""

    def __init__(self, dist: ExactDistribution):
        self.k = dist.k
        self.cum = np.concatenate(([0.0], np.cumsum(dist.probs)))

    def prefix_probability(self, bits: str) -> float:
        """Pr(first len(bits) bits = bits), read off the cumulative
        table."""
        j = len(bits)
        if not 0 < j <= self.k:
            raise ValueError("prefix length out of range")
        if any(c not in "01" for c in bits):
            raise ValueError("prefix must be over 0/1")
        lo = int(bits, 2) << (self.k - j)
        return float(self.cum[lo + (1 << (self.k - j))] - self.cum[lo])


def cdf_outcome_for_r(strong, k: int, r: float) -> str:
    """Deterministic CDF inversion: bit j is 0 exactly when r falls below
    the running lower edge plus the mass of the 0-extension."""
    lower = 0.0
    prefix = ""
    for _ in range(k):
        q0 = strong.prefix_probability(prefix + "0")
        if r < lower + q0:
            prefix += "0"
        else:
            prefix += "1"
            lower += q0
    return prefix


def cdf_bitwise_sample(strong, m: int, rng: np.random.Generator) -> str:
    """One draw: r as m uniform bits (r = sum r_i 2^-i), then the CDF
    inverted at r."""
    bits = rng.integers(0, 2, size=m)
    r = int("".join(map(str, bits)), 2) / float(1 << m)
    return cdf_outcome_for_r(strong, strong.k, r)


def chain_outcome(mult, rng: np.random.Generator) -> str:
    """One ancestral draw: bit j is 0 with probability q_j/q_{j-1}, the
    ratio of successive joint prefix estimates (q_0 = 1), clamped to
    [0, 1]; a denominator <= 0 forces the 1 branch."""
    prefix = ""
    q_prev = 1.0
    for _ in range(mult.k):
        q0 = mult.prefix_probability(prefix + "0")
        ratio = 0.0 if q_prev <= 0.0 else min(max(q0 / q_prev, 0.0), 1.0)
        r = 1.0 - rng.random()
        if ratio >= r:
            prefix += "0"
            q_prev = q0
        else:
            prefix += "1"
            q_prev = mult.prefix_probability(prefix)
    return prefix
