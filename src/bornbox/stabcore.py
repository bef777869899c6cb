"""Bit-packed Pauli operators, Clifford tableaus, and product-state algebra.

Conventions
-----------
A :class:`PauliOperator` stores ``sign * prod_i i**(x_i z_i) X_i**x_i Z_i**z_i``.
The i-factor makes every stored operator Hermitian, so ``sign`` is +1 or -1 and
the letter on qubit i is I, X, Z or Y for (x_i, z_i) = (0,0), (1,0), (0,1),
(1,1).  Bit i of the packed integers ``x`` and ``z`` refers to qubit i.

:func:`pull_back` returns ``U^dag P U`` for a gate list U, the direction
needed to pull a measurement observable back through a circuit onto the
input state.  It walks the gates in reverse with the per-gate sign rules
(Heisenberg picture), at O(1) per gate and without building a tableau; the
product-input estimator uses it.

A :class:`CliffordTableau` stores the images ``U X_i U^dag`` and ``U Z_i U^dag``
for a Clifford unitary U.  :func:`compose_gate` left-multiplies a named gate
onto U, :func:`apply_tableau` gives ``U P U^dag`` and, through
:func:`inverse_tableau`, the same ``U^dag P U``.  Tableaus serve uniform
Clifford draws, gate synthesis and cross-checks of the gate-list route.

Uniform tableau sampling follows the Koenig-Smolin indexing of Sp(2n, F2)
(arXiv:1406.2170): a uniform integer below the group order is decoded into a
symplectic matrix, and the 2n image signs are drawn as independent fair bits.
No rejection against the group is involved, so the draw is exactly uniform.
The decode runs on bit-packed ints, like the Paulis: a vector of F2^2n is
one int with qubit q's x bit at 2q and its z bit at 2q+1, a transvection is
one XOR, and the matrix is a list of column ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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

    def commutes_with(self, other: "PauliOperator") -> bool:
        if self.n != other.n:
            raise ValueError("qubit-count mismatch")
        return _parity((self.x & other.z) ^ (self.z & other.x)) == 0


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


def conjugate_by_gate(p: PauliOperator, gate: GateApp) -> PauliOperator:
    if max(gate.qubits) >= p.n:
        raise ValueError("gate qubit outside operator range")
    x, z, sign = _gate_conjugate_bits(gate.name, gate.qubits, p.x, p.z, p.sign)
    return PauliOperator(p.n, x, z, sign)


@dataclass(frozen=True)
class CliffordTableau:
    """Images of the 2n Pauli generators under conjugation by a Clifford U."""

    n: int
    x_images: tuple[PauliOperator, ...]
    z_images: tuple[PauliOperator, ...]

    def __post_init__(self):
        if len(self.x_images) != self.n or len(self.z_images) != self.n:
            raise ValueError("tableau needs n X-images and n Z-images")
        rows = self.x_images + self.z_images
        if any(p.n != self.n for p in rows):
            raise ValueError("image qubit-count mismatch")
        # Conjugation preserves the commutation pattern of the generators;
        # anything violating it is not realizable by a unitary.
        for a, b in combinations(range(2 * self.n), 2):
            want = 1 if (a % self.n == b % self.n and a != b) else 0
            got = 0 if rows[a].commutes_with(rows[b]) else 1
            if got != want:
                raise ValueError("images do not satisfy the symplectic condition")


def identity_tableau(n: int) -> CliffordTableau:
    xs = tuple(PauliOperator(n, 1 << i, 0, 1) for i in range(n))
    zs = tuple(PauliOperator(n, 0, 1 << i, 1) for i in range(n))
    return CliffordTableau(n, xs, zs)


def compose_gate(t: CliffordTableau, gate: GateApp) -> CliffordTableau:
    """Tableau of (gate * U) for tableau of U."""
    if max(gate.qubits) >= t.n:
        raise ValueError("gate qubit outside tableau range")
    xs = tuple(conjugate_by_gate(p, gate) for p in t.x_images)
    zs = tuple(conjugate_by_gate(p, gate) for p in t.z_images)
    return CliffordTableau(t.n, xs, zs)


def tableau_from_gates(n: int, gates) -> CliffordTableau:
    t = identity_tableau(n)
    for g in gates:
        t = compose_gate(t, g)
    return t


def apply_tableau(t: CliffordTableau, p: PauliOperator) -> PauliOperator:
    """U P U^dag, by multiplying out generator images."""
    if p.n != t.n:
        raise ValueError("qubit-count mismatch")
    k = _xz_phase(p)
    x = z = 0
    for imgs, bits in ((t.x_images, p.x), (t.z_images, p.z)):
        b = bits
        while b:
            j = (b & -b).bit_length() - 1
            b &= b - 1
            img = imgs[j]
            k = (k + _xz_phase(img) + 2 * _parity(z & img.x)) % 4
            x ^= img.x
            z ^= img.z
    return _hermitian_from_xz(t.n, k, x, z)


def inverse_tableau(t: CliffordTableau) -> CliffordTableau:
    """Tableau of U^dag.

    The bit part is the symplectic inverse Omega M^T Omega; each sign is then
    fixed by pushing the candidate forward through t and reading off the sign
    it lands with.
    """
    n = t.n
    rows = t.x_images + t.z_images

    def bit(r: int, c: int) -> int:
        p = rows[r]
        return (p.x >> c) & 1 if c < n else (p.z >> (c - n)) & 1

    def swap(i: int) -> int:
        return i + n if i < n else i - n

    inv_rows = []
    for r in range(2 * n):
        x = z = 0
        for c in range(2 * n):
            if bit(swap(c), swap(r)):
                if c < n:
                    x |= 1 << c
                else:
                    z |= 1 << (c - n)
        candidate = PauliOperator(n, x, z, 1)
        image = apply_tableau(t, candidate)
        inv_rows.append(PauliOperator(n, x, z, image.sign))
    return CliffordTableau(n, tuple(inv_rows[:n]), tuple(inv_rows[n:]))


def pull_back(gates, p: PauliOperator) -> PauliOperator:
    """U^dag P U for U = g_G ... g_1, without building a tableau.

    Heisenberg picture: P is conjugated by g_G^dag, then g_{G-1}^dag, down to
    g_1^dag, at O(1) cost per gate.  Every gate but S is self-inverse; for S,
    S^dag = Z S, so S^dag P S is conjugation by S followed by Z.
    """
    x, z, sign = p.x, p.z, p.sign
    for gate in reversed(gates):
        if max(gate.qubits) >= p.n:
            raise ValueError("gate qubit outside operator range")
        x, z, sign = _gate_conjugate_bits(gate.name, gate.qubits, x, z, sign)
        if gate.name == "S":
            x, z, sign = _gate_conjugate_bits("Z", gate.qubits, x, z, sign)
    return PauliOperator(p.n, x, z, sign)


# ---------------------------------------------------------------------------
# Uniform Clifford sampling (Koenig-Smolin symplectic indexing + sign bits)
# ---------------------------------------------------------------------------

def symplectic_group_order(n: int) -> int:
    order = 1
    for j in range(1, n + 1):
        order *= (1 << (2 * j)) - 1
        order *= 1 << (2 * j - 1)
    return order


def _sym_inner(u: int, v: int, even: int) -> int:
    # interleaved layout: qubit q holds x in bit 2q and z in bit 2q+1, and
    # even masks the x bits
    return ((u & (v >> 1) & even) ^ ((u >> 1) & v & even)).bit_count() & 1


def _transvect(h: int, v: int, even: int) -> int:
    return v ^ h if _sym_inner(h, v, even) else v


# the nonzero one-qubit vectors (x, z) = (0, 1), (1, 0), (1, 1), in the
# order the search for a mediating vector tries them
_PAIRS = (2, 1, 3)


def _pair_with(*vs: int) -> int:
    """First nonzero one-qubit vector with odd product against every v."""
    return next(c for c in _PAIRS if all(_sym_inner(v, c, 1) for v in vs))


def _find_transvections(x: int, y: int, n: int, even: int) -> tuple[int, int]:
    """(h1, h2) with Tv_h1(Tv_h2(x)) == y, for nonzero x, y."""
    if x == y:
        return 0, 0
    if _sym_inner(x, y, even):
        return x ^ y, 0

    # Need z with <x,z> = <y,z> = 1; then Tv_{x+z} after Tv_{z+y} maps x to y.
    xs = [(x >> 2 * q) & 3 for q in range(n)]
    ys = [(y >> 2 * q) & 3 for q in range(n)]
    both = next((q for q in range(n) if xs[q] and ys[q]), None)
    if both is not None:
        z = _pair_with(xs[both], ys[both]) << 2 * both
    else:
        qx = next(q for q in range(n) if xs[q])
        qy = next(q for q in range(n) if ys[q])
        z = _pair_with(xs[qx]) << 2 * qx | _pair_with(ys[qy]) << 2 * qy
    return x ^ z, z ^ y


def _symplectic_columns(index: int, n: int) -> list[int]:
    """Koenig-Smolin decode of an index in [0, order) into the interleaved
    symplectic matrix, as 2n column ints (bit i of column j is entry i, j)."""
    nn = 2 * n
    even = (1 << nn) // 3
    s = (1 << nn) - 1
    f1 = (index % s) + 1
    index //= s
    h1, h2 = _find_transvections(1, f1, n, even)

    bits = index % (1 << (nn - 1))
    index >>= nn - 1
    eprime = 1 | (bits >> 1) << 2
    h0 = _transvect(h1, _transvect(h2, eprime, even), even)
    # bit 0 selects one of the two cosets of images of the second basis
    # vector; it toggles whether the final f1-transvection is applied.
    flast = 0 if bits & 1 else f1

    cols = [1, 2]
    if n > 1:
        cols += [c << 2 for c in _symplectic_columns(index, n - 1)]
    out = []
    for col in cols:
        for h in (h2, h1, h0, flast):
            col = _transvect(h, col, even)
        out.append(col)
    return out


def _rand_below(rng: np.random.Generator, bound: int) -> int:
    nbits = bound.bit_length()
    nbytes = (nbits + 7) // 8
    mask = (1 << nbits) - 1
    while True:
        raw = rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()
        v = int.from_bytes(raw, "little") & mask
        if v < bound:
            return v


def random_clifford(n: int, rng: np.random.Generator) -> CliffordTableau:
    """Exactly uniform random tableau (symplectic index + fair sign bits).

    The index is decoded on bit-packed ints; tableau row r is row r of the
    grouped-layout matrix, i.e. interleaved row 2r (x part) or 2(r-n)+1 (z
    part), read across the x columns 2c and the z columns 2c+1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    index = _rand_below(rng, symplectic_group_order(n))
    cols = _symplectic_columns(index, n)
    signs = rng.integers(0, 2, size=2 * n)

    def gather(part: list[int], i: int) -> int:
        return sum(((col >> i) & 1) << c for c, col in enumerate(part))

    order = [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]
    rows = [PauliOperator(n, gather(cols[0::2], i), gather(cols[1::2], i),
                          -1 if sign else 1)
            for i, sign in zip(order, signs)]
    return CliffordTableau(n, tuple(rows[:n]), tuple(rows[n:]))


# ---------------------------------------------------------------------------
# Tableau -> gate-list synthesis (sweep to identity, emit inverses reversed)
# ---------------------------------------------------------------------------

def synthesize_gates(t: CliffordTableau) -> tuple[GateApp, ...]:
    """Gate sequence (H, S, CNOT, CZ, X, Z) realizing the tableau's unitary.

    Applies gates that sweep the tableau to the identity, then returns the
    daggered gates in reverse order.  Cost is O(n^2) gates.  The sweep acts
    on the packed rows and records plain (name, qubits) pairs; a
    :class:`GateApp` is built only for each returned gate.
    """
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
