"""Bit-packed Pauli operators, Clifford tableaus, and product-state algebra.

Conventions
-----------
A :class:`PauliOperator` stores ``sign * prod_i i**(x_i z_i) X_i**x_i Z_i**z_i``.
The i-factor makes every stored operator Hermitian, so ``sign`` is +1 or -1 and
the letter on qubit i is I, X, Z or Y for (x_i, z_i) = (0,0), (1,0), (0,1),
(1,1).  Bit i of the packed integers ``x`` and ``z`` refers to qubit i.

A :class:`CliffordTableau` stores the images ``U X_i U^dag`` and ``U Z_i U^dag``
of a Clifford U as Stim-style bit planes (arXiv:2103.02202): bit r of
``xs[q]`` (``zs[q]``) is image row r's x (z) bit on qubit q and bit r of
``signs`` its sign, so one word rule per gate, the only gate-conjugation rule
here, updates all rows at once: in :func:`tableau_from_gates`, in the
:func:`synthesize_gates` sweep and in :func:`pull_back`, which packs f Paulis
P as f rows of such words and walks the gates once in reverse (Heisenberg
picture) to return every ``U^dag P U``, pulling the estimator's measured Z's
back onto the input state without building a tableau.  Every tableau passes
:func:`check_symplectic`, the rows' n(2n-1) commutation conditions checked
on the 2n column words.  :func:`apply_tableau` gives ``U P U^dag`` and,
through :func:`inverse_tableau`, ``U^dag P U``.

Uniform tableau sampling follows the Koenig-Smolin indexing of Sp(2n, F2)
(arXiv:1406.2170): a uniform integer below the group order is decoded into a
symplectic matrix, and the 2n image signs are drawn as independent fair bits.
No rejection against the group is involved, so the draw is exactly uniform.
The decode runs on ints with qubit q's x bit at 2q and its z bit at 2q+1, so
a transvection is one XOR, and each column of the matrix is deinterleaved by
a byte table straight into a tableau word.  Synthesized gates are interned:
each distinct (name, qubits) is validated as a :class:`GateApp` once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GATE_ARITY = {"H": 1, "S": 1, "X": 1, "Z": 1, "CNOT": 2, "CZ": 2}


def _parity(v: int) -> int:
    return v.bit_count() & 1


@dataclass(frozen=True)
class GateApp:
    """One named Clifford gate applied to specific qubits."""

    name: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.name not in GATE_ARITY:
            raise ValueError(f"unknown gate {self.name!r}")
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if len(self.qubits) != GATE_ARITY[self.name]:
            raise ValueError(f"gate {self.name} takes {GATE_ARITY[self.name]} qubit(s)")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"gate {self.name} qubits must be distinct")
        if any(q < 0 for q in self.qubits):
            raise ValueError("negative qubit index")


@dataclass(frozen=True)
class PauliOperator:
    """Signed n-qubit Pauli in the Hermitian convention described above."""

    n: int
    x: int
    z: int
    sign: int = 1

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("x/z bits outside qubit range")

    @classmethod
    def single_z(cls, n: int, qubit: int, sign: int = 1) -> "PauliOperator":
        return cls(n, 0, 1 << qubit, sign)


def _xz_phase(p: PauliOperator) -> int:
    """Phase exponent k of p written as i**k X**x Z**z."""
    return ((p.x & p.z).bit_count() + (0 if p.sign == 1 else 2)) % 4


def _hermitian_from_xz(n: int, k: int, x: int, z: int) -> PauliOperator:
    rem = (k - (x & z).bit_count()) % 4
    if rem == 0:
        return PauliOperator(n, x, z, 1)
    if rem == 2:
        return PauliOperator(n, x, z, -1)
    raise AssertionError("non-Hermitian Pauli product; invalid tableau input")


def _conjugate_words(name: str, qubits: tuple[int, ...], xs: list[int],
                     zs: list[int], sg: int) -> int:
    """g P g^dag for gate g on every row P of the words laid out as in a
    tableau: the sign rule reads the old bits, then ``xs`` and ``zs`` are
    updated in place; returns the new sign word."""
    a = qubits[0]
    if name == "CNOT":
        b = qubits[1]
        sg ^= xs[a] & zs[b] & ~(xs[b] ^ zs[a])
        xs[b] ^= xs[a]
        zs[a] ^= zs[b]
    elif name == "CZ":
        b = qubits[1]
        sg ^= xs[a] & xs[b] & (zs[a] ^ zs[b])
        zs[b] ^= xs[a]
        zs[a] ^= xs[b]
    elif name == "H":
        xs[a], zs[a] = zs[a], xs[a]
        sg ^= xs[a] & zs[a]
    elif name == "S":
        sg ^= xs[a] & zs[a]
        zs[a] ^= xs[a]
    elif name == "X":
        sg ^= zs[a]
    elif name == "Z":
        sg ^= xs[a]
    else:
        raise ValueError(f"unknown gate {name!r}")
    return sg


def _to_words(n: int, rows) -> tuple[list[int], list[int], int]:
    """Rows of n-qubit Paulis as words laid out as in a tableau: bit r of
    ``xs[q]`` (``zs[q]``) is row r's x (z) bit on qubit q, and bit r of the
    sign word is set for sign -1.  Costs one step per set bit."""
    xs, zs, signs = [0] * n, [0] * n, 0
    for r, p in enumerate(rows):
        if p.n != n:
            raise ValueError("image qubit-count mismatch")
        for words, bits in ((xs, p.x), (zs, p.z)):
            while bits:
                words[(bits & -bits).bit_length() - 1] |= 1 << r
                bits &= bits - 1
        if p.sign == -1:
            signs |= 1 << r
    return xs, zs, signs


def _row(n: int, xs, zs, signs: int, r: int) -> PauliOperator:
    """Row r of words laid out as in ``_to_words``."""
    x = sum(((w >> r) & 1) << q for q, w in enumerate(xs))
    z = sum(((w >> r) & 1) << q for q, w in enumerate(zs))
    return PauliOperator(n, x, z, -1 if (signs >> r) & 1 else 1)


def pull_back(n: int, gates, paulis) -> tuple[PauliOperator, ...]:
    """U^dag P U for U = g_G ... g_1 and each n-qubit P in the sequence
    paulis, in one pass over the gates and without building a tableau.

    Heisenberg picture: the Paulis are packed as the rows of tableau-layout
    words, which each gate's word rule takes through g_G^dag down to g_1^dag.
    Every gate but S is self-inverse; S^dag = Z S, so S is followed by Z.
    """
    xs, zs, sg = _to_words(n, paulis)
    for gate in reversed(gates):
        if max(gate.qubits) >= n:
            raise ValueError("gate qubit outside operator range")
        sg = _conjugate_words(gate.name, gate.qubits, xs, zs, sg)
        if gate.name == "S":
            sg = _conjugate_words("Z", gate.qubits, xs, zs, sg)
    return tuple(_row(n, xs, zs, sg, r) for r in range(len(paulis)))


@dataclass(frozen=True, init=False)
class CliffordTableau:
    """Images of the 2n Pauli generators under conjugation by a Clifford U.

    Row r < n is ``U X_r U^dag`` and row n + r is ``U Z_r U^dag``, packed as
    described above (a ``signs`` bit is set for sign -1).  The constructor
    takes the rows, and ``x_images`` and ``z_images`` read them back.
    """

    n: int
    xs: tuple[int, ...]
    zs: tuple[int, ...]
    signs: int

    def __init__(self, n: int, x_images, z_images):
        if len(x_images) != n or len(z_images) != n:
            raise ValueError("tableau needs n X-images and n Z-images")
        self._set_words(n, *_to_words(n, (*x_images, *z_images)))

    @classmethod
    def from_words(cls, n: int, xs, zs, signs: int) -> "CliffordTableau":
        """The tableau with these packed words, checked like any other."""
        t = object.__new__(cls)
        t._set_words(n, xs, zs, signs)
        return t

    def _set_words(self, n: int, xs, zs, signs: int):
        # every tableau is built here, so every one passes the check
        check_symplectic(n, xs, zs)
        for name, value in (("n", n), ("xs", tuple(xs)), ("zs", tuple(zs)),
                            ("signs", signs)):
            object.__setattr__(self, name, value)

    def _image(self, r: int) -> PauliOperator:
        return _row(self.n, self.xs, self.zs, self.signs, r)

    @property
    def x_images(self) -> tuple[PauliOperator, ...]:
        return tuple(self._image(r) for r in range(self.n))

    @property
    def z_images(self) -> tuple[PauliOperator, ...]:
        return tuple(self._image(self.n + r) for r in range(self.n))


def check_symplectic(n: int, xs, zs) -> None:
    """Refuse words whose rows break the generators' commutation pattern,
    which conjugation by a unitary preserves.  A matrix is symplectic iff its
    transpose is, so the n(2n-1) row pairs are checked as column pairs, with
    row r paired against row n + r: <xs[q], zs[p]> = [p == q] and every
    other pair of columns has product 0."""
    cols = (*xs, *zs)
    if len(cols) != 2 * n or any(w >> (2 * n) for w in cols):
        raise ValueError("tableau needs 2n-bit words on n qubits")
    low = (1 << n) - 1
    for a, u in enumerate(cols):
        su = u >> n | (u & low) << n  # <u, v> is the parity of su & v
        for b in range(a + 1, 2 * n):
            if (su & cols[b]).bit_count() & 1 != (b == a + n):
                raise ValueError("images do not satisfy the symplectic condition")


def tableau_from_gates(n: int, gates) -> CliffordTableau:
    """Tableau of g_G ... g_1: the identity's words taken through each gate."""
    xs, zs, sg = [1 << q for q in range(n)], [1 << (n + q) for q in range(n)], 0
    for g in gates:
        if max(g.qubits) >= n:
            raise ValueError("gate qubit outside tableau range")
        sg = _conjugate_words(g.name, g.qubits, xs, zs, sg)
    return CliffordTableau.from_words(n, xs, zs, sg)


def apply_tableau(t: CliffordTableau, p: PauliOperator) -> PauliOperator:
    """U P U^dag, by multiplying out generator images."""
    if p.n != t.n:
        raise ValueError("qubit-count mismatch")
    k = _xz_phase(p)
    x = z = 0
    for offset, bits in ((0, p.x), (t.n, p.z)):
        b = bits
        while b:
            j = (b & -b).bit_length() - 1
            b &= b - 1
            img = t._image(offset + j)
            k = (k + _xz_phase(img) + 2 * _parity(z & img.x)) % 4
            x ^= img.x
            z ^= img.z
    return _hermitian_from_xz(t.n, k, x, z)


def inverse_tableau(t: CliffordTableau) -> CliffordTableau:
    """Tableau of U^dag.

    The bit part is the symplectic inverse Omega M^T Omega: its x (z) word on
    qubit q is the image of Z_q (X_q) with the z bits low and the x bits
    high.  Each sign is then fixed by pushing the row forward through t and
    reading off the sign it lands with.
    """
    n = t.n
    swapped = [img.z | img.x << n for img in t.x_images + t.z_images]
    bare = CliffordTableau.from_words(n, swapped[n:], swapped[:n], 0)
    signs = sum(1 << r for r in range(2 * n)
                if apply_tableau(t, bare._image(r)).sign == -1)
    return CliffordTableau.from_words(n, swapped[n:], swapped[:n], signs)


# ---------------------------------------------------------------------------
# Uniform Clifford sampling (Koenig-Smolin symplectic indexing + sign bits)
# ---------------------------------------------------------------------------

def symplectic_group_order(n: int) -> int:
    order = 1
    for j in range(1, n + 1):
        order *= (1 << (2 * j)) - 1
        order *= 1 << (2 * j - 1)
    return order


# for a nonzero one-qubit vector v (x in bit 0, z in bit 1), the first of
# (x, z) = (0, 1), (1, 0), (1, 1) with odd symplectic product against it
_PAIR = (0, 2, 1, 2)


def _find_transvections(y: int) -> tuple[int, int]:
    """(h1, h2) with Tv_h1(Tv_h2(e1)) == y for nonzero y, where e1 = 1 is
    qubit 0's x bit in the interleaved layout (qubit q's x at bit 2q, z at
    2q+1)."""
    if y == 1:
        return 0, 0
    if y & 2:  # <e1, y> = 1
        return 1 ^ y, 0
    # Need z with <e1,z> = <y,z> = 1; then Tv_{e1+z} after Tv_{z+y} maps e1
    # to y.  z's qubit 0 is (0, 1); when y's qubit 0 is zero, z also pairs
    # with y's lowest nonzero qubit.
    q = ((y & -y).bit_length() - 1) >> 1
    z = 2 if q == 0 else 2 | _PAIR[(y >> 2 * q) & 3] << 2 * q
    return 1 ^ z, z ^ y


def _symplectic_columns(index: int, n: int) -> list[int]:
    """Koenig-Smolin decode of an index in [0, order) into the interleaved
    symplectic matrix, as 2n column ints (bit i of column j is entry i, j)."""
    nn = 2 * n
    even = (1 << nn) // 3
    s = (1 << nn) - 1
    f1 = (index % s) + 1
    index //= s
    bits = index % (1 << (nn - 1))
    index >>= nn - 1

    # Tv_h maps v to v + <h, v> h, and <h, v> is the parity of v & sh, sh
    # being h with its x and z bits swapped; Tv_0 is the identity
    hs = []

    def then(*vs: int):
        hs.extend((h, (h >> 1) & even | (h & even) << 1) for h in vs if h)

    def transvect(v: int) -> int:
        for h, sh in hs:
            if (sh & v).bit_count() & 1:
                v ^= h
        return v

    h1, h2 = _find_transvections(f1)
    then(h2, h1)
    # h0 is e' = e1 plus the free bits, taken through Tv_h2 and then Tv_h1;
    # bit 0 selects one of the two cosets of images of the second basis
    # vector: it toggles whether the final f1-transvection is applied.
    then(transvect(1 | (bits >> 1) << 2), 0 if bits & 1 else f1)
    cols = [1, 2]
    if n > 1:
        cols += [c << 2 for c in _symplectic_columns(index, n - 1)]
    return [transvect(col) for col in cols]


def _rand_below(rng: np.random.Generator, bound: int) -> int:
    nbits = bound.bit_length()
    nbytes = (nbits + 7) // 8
    mask = (1 << nbits) - 1
    while True:
        raw = rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()
        v = int.from_bytes(raw, "little") & mask
        if v < bound:
            return v


# byte b's four even bits in the low nibble and its four odd bits above
_SPLIT = [sum(((b >> 2 * i) & 1) << i | ((b >> (2 * i + 1)) & 1) << (4 + i)
              for i in range(4)) for b in range(256)]


def _deinterleave(col: int, n: int) -> int:
    """Interleaved column -> tableau word: bit 2r to bit r, bit 2r+1 to n+r."""
    even = odd = 0
    for k in range(0, n, 4):
        b = _SPLIT[col & 255]
        even |= (b & 15) << k
        odd |= (b >> 4) << k
        col >>= 8
    return even | odd << n


def random_clifford(n: int, rng: np.random.Generator) -> CliffordTableau:
    """Exactly uniform random tableau (symplectic index + fair sign bits).
    Tableau row r is interleaved row 2r (r < n) or 2(r-n)+1, so the word
    ``xs[q]`` (``zs[q]``) is decoded column 2q (2q+1) deinterleaved."""
    if n < 1:
        raise ValueError("n must be positive")
    index = _rand_below(rng, symplectic_group_order(n))
    cols = [_deinterleave(col, n) for col in _symplectic_columns(index, n)]
    signs = rng.integers(0, 2, size=2 * n).tolist()
    return CliffordTableau.from_words(n, cols[0::2], cols[1::2],
                                      sum(b << r for r, b in enumerate(signs)))


# ---------------------------------------------------------------------------
# Tableau -> gate-list synthesis (sweep to identity, emit inverses reversed)
# ---------------------------------------------------------------------------

# one GateApp per (name, qubits), so each distinct gate is validated once
_INTERNED: dict[tuple[str, tuple[int, ...]], GateApp] = {}


def _interned_gate(name: str, qubits: tuple[int, ...]) -> GateApp:
    gate = _INTERNED.get((name, qubits))
    if gate is None:
        gate = _INTERNED[name, qubits] = GateApp(name, qubits)
    return gate


def synthesize_gates(t: CliffordTableau) -> tuple[GateApp, ...]:
    """Gate sequence (H, S, CNOT, CZ, X, Z) realizing the tableau's unitary.

    Applies gates that sweep copies of the tableau's words to the identity,
    then returns the daggered gates in reverse order.  Cost is O(n^2) gates,
    each a few int operations on all rows; a row's bits are read only where
    the sweep branches on them.
    """
    n = t.n
    xs, zs, sg = list(t.xs), list(t.zs), t.signs
    applied: list[GateApp] = []

    def do(name: str, *qubits: int):
        # applied holds the daggered gates last first; S^dag = Z S
        nonlocal sg
        sg = _conjugate_words(name, qubits, xs, zs, sg)
        if name == "S":
            applied.append(_interned_gate("Z", qubits))
        applied.append(_interned_gate(name, qubits))

    def clear_row(i: int, r: int):
        # CNOT clears row r's x bits and CZ its z bits above qubit i; a gate
        # on (i, j) leaves the columns of every later j untouched, so each
        # bit is read when its turn comes
        for j in range(i + 1, n):
            if (xs[j] >> r) & 1:
                do("CNOT", i, j)
        for j in range(i + 1, n):
            if (zs[j] >> r) & 1:
                do("CZ", i, j)
        if (zs[i] >> r) & 1:
            do("S", i)

    for i in range(n):
        pivot = next((q for q in range(i, n) if (xs[q] >> i) & 1), None)
        if pivot is None:
            pivot = next(q for q in range(i, n) if (zs[q] >> i) & 1)
            do("H", pivot)
        if pivot != i:  # swap qubits i and pivot
            for a, b in ((i, pivot), (pivot, i), (i, pivot)):
                do("CNOT", a, b)
        clear_row(i, i)
        # Same sweep for the Z_i image, flipped into the X picture around i.
        do("H", i)
        clear_row(i, n + i)
        do("H", i)
        if (sg >> i) & 1:
            do("Z", i)
        if (sg >> (n + i)) & 1:
            do("X", i)

    if sg or any(xs[q] != 1 << q or zs[q] != 1 << (n + q) for q in range(n)):
        raise AssertionError("tableau sweep failed to reach identity")
    return tuple(reversed(applied))


# ---------------------------------------------------------------------------
# Product states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductState:
    """n-qubit product state given by one Bloch vector per qubit (|r| <= 1)."""

    bloch: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        cleaned = []
        for r in self.bloch:
            if len(r) != 3:
                raise ValueError("Bloch vector needs 3 components")
            rx, ry, rz = (float(c) for c in r)
            if not all(map(math.isfinite, (rx, ry, rz))):
                raise ValueError("Bloch components must be finite")
            if rx * rx + ry * ry + rz * rz > 1.0 + 1e-9:
                raise ValueError("Bloch vector outside the unit ball")
            cleaned.append((rx, ry, rz))
        object.__setattr__(self, "bloch", tuple(cleaned))

    @property
    def n(self) -> int:
        return len(self.bloch)

    @classmethod
    def zero(cls, n: int) -> "ProductState":
        return cls(((0.0, 0.0, 1.0),) * n)

    def purity_defect(self, qubit: int) -> float:
        rx, ry, rz = self.bloch[qubit]
        return 1.0 - (rx * rx + ry * ry + rz * rz)


def product_expectation(state: ProductState, p: PauliOperator) -> float:
    """tr(rho P) for the product state rho; factorizes over qubits."""
    if state.n != p.n:
        raise ValueError("qubit-count mismatch")
    val = float(p.sign)
    for i in range(p.n):
        xi = (p.x >> i) & 1
        zi = (p.z >> i) & 1
        if not (xi or zi):
            continue
        rx, ry, rz = state.bloch[i]
        val *= ry if (xi and zi) else (rx if xi else rz)
        if val == 0.0:
            return 0.0
    return val


def pauli_expansion_probability(t: CliffordTableau, state: ProductState,
                                pattern: str) -> float:
    """Exact outcome-pattern probability via the Z-projector expansion.

    The projector onto pattern S factorizes as 2^-k sum over subsets of the
    fixed positions of signed Z-strings; each term is conjugated through the
    tableau and evaluated on the product state.  Exponential in the number of
    fixed positions, so only suitable at small k; serves as a cross-check
    route that never builds a statevector.
    """
    fixed = [(i, int(c)) for i, c in enumerate(pattern) if c in "01"]
    if any(c not in "01*" for c in pattern):
        raise ValueError("pattern must be over 0, 1, *")
    inv = inverse_tableau(t)
    total = 0.0
    k = len(fixed)
    for mask in range(1 << k):
        z = 0
        par = 0
        for b in range(k):
            if (mask >> b) & 1:
                pos, bit = fixed[b]
                z |= 1 << pos
                par ^= bit
        term = apply_tableau(inv, PauliOperator(t.n, 0, z, 1))
        total += (-1.0 if par else 1.0) * product_expectation(state, term)
    return total / (1 << k)
