"""Bit-packed Pauli operators, Clifford tableaus, and product-state algebra.

Conventions
-----------
A :class:`GateApp` is a checked ``(name, qubits)`` tuple: a known gate
name and distinct, nonnegative qubits of its arity.  Whether the qubits fit
a circuit is checked once, where the qubit count is known: in
``ProdCircuit``; the word rule takes the gates as they are.

A :class:`PauliOperator` stores ``sign * prod_i i**(x_i z_i) X_i**x_i Z_i**z_i``.
The i-factor makes every stored operator Hermitian, so ``sign`` is +1 or -1 and
the letter on qubit i is I, X, Z or Y for (x_i, z_i) = (0,0), (1,0), (0,1),
(1,1).  Bit i of the packed integers ``x`` and ``z`` refers to qubit i.

A :class:`CliffordTableau` stores the images ``U X_i U^dag`` and ``U Z_i U^dag``
of a Clifford U as Stim-style bit planes (arXiv:2103.02202): bit r of
``xs[q]`` (``zs[q]``) is image row r's x (z) bit on qubit q and bit r of
``signs`` its sign, so one word rule per gate, the only gate-conjugation rule
here, updates all rows at once: in :func:`tableau_from_gates`, in the
synthesis sweep and in :func:`pull_back_words`, which takes f Paulis P,
packed as f rows of such words, through the gates once in reverse
(Heisenberg picture), leaving the words of every ``U^dag P U``: the
estimator packs its measured Z's that way to pull them back onto the input
state without building a tableau.  The rule takes a mask that selects the
rows, or, on a stack of tableaus whose words are uint64 arrays over trials,
the trials it applies to.  Every tableau passes :func:`check_symplectic`,
the rows' n(2n-1) commutation conditions checked on the 2n column words,
as one array check over a whole stack of draws or on a stack of one.
:func:`apply_tableau` gives ``U P U^dag`` and, through
:func:`inverse_tableau`, ``U^dag P U``.

Uniform tableau sampling follows the Koenig-Smolin indexing of Sp(2n, F2)
(arXiv:1406.2170): a uniform integer below the group order is decoded into a
symplectic matrix, and the 2n image signs are drawn as independent fair bits.
No rejection against the group is involved, so the draw is exactly uniform.
:func:`random_clifford_words` draws a whole chunk of tableaus as arrays: one
bulk draw of 32-bit words replays the stream of numpy calls that the tests'
one-at-a-time ``reference_random_clifford`` makes, index rejections
included; the indices are split into their mixed-radix digits one level at
a time over the whole stack, and the decode runs every level's
transvections on (T, 2n) uint64 columns, with qubit q's x bit at 2q and its
z bit at 2q+1, before deinterleaving them into tableau words.  64-bit words cap draws and
synthesis at 32 qubits.

Synthesis sweeps a stack of tableaus to the identity at once, on the
stack's bit planes held as Python ints: one x plane and one z plane per
qubit and one sign plane, bit r W + t of a plane being row r of trial t,
with the trial count rounded up to whole bytes as W.
:func:`synthesis_steps` makes every potential gate of the sweep one call
of the word rule above, still the only gate rule, on those planes, its
trial mask copied onto the 2n row blocks by doubling shifts.  It emits the
daggered gates, reversed, as steps in the order they act, each a gate name,
its qubit(s) as an int or a per-trial array, and the mask of the trials
that apply it; the masks, kept as ints during the sweep, become one bool
array in one unpack at its end.  The oracle evolves those steps directly,
and :func:`replay_steps` takes a stack of identities through them, which
rebuilds the swept words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

GATE_ARITY = {"H": 1, "S": 1, "X": 1, "Z": 1, "CNOT": 2, "CZ": 2}


def _parity(v: int) -> int:
    return v.bit_count() & 1


class _GateFields(NamedTuple):
    name: str
    qubits: tuple[int, ...]


class GateApp(_GateFields):
    """One named Clifford gate applied to specific qubits, checked on
    construction as described above; ``GateApp._make`` skips the checks,
    for a caller that has made them."""

    __slots__ = ()

    def __new__(cls, name: str, qubits):
        arity = GATE_ARITY.get(name)
        if arity is None:
            raise ValueError(f"unknown gate {name!r}")
        qubits = tuple(map(int, qubits))
        if len(qubits) != arity:
            raise ValueError(f"gate {name} takes {arity} qubit(s)")
        if len(set(qubits)) != arity:
            raise ValueError(f"gate {name} qubits must be distinct")
        if min(qubits) < 0:
            raise ValueError("negative qubit index")
        return super().__new__(cls, name, qubits)


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


def _conjugate_words(name: str, qubits: tuple, xs, zs, sg, m=-1):
    """g P g^dag for gate g on every row P of the words laid out as in a
    tableau, or only on the rows whose bit in the mask m is set (for a stack
    of tableaus, whose words are arrays over trials, m selects trials): the
    sign rule reads the old bits, then ``xs`` and ``zs`` are updated in
    place; returns the new sign word."""
    a = qubits[0]
    if name == "CNOT":
        b = qubits[1]
        xa, zb = xs[a] & m, zs[b] & m
        sg ^= xa & zb & ~(xs[b] ^ zs[a])
        xs[b] ^= xa
        zs[a] ^= zb
    elif name == "CZ":
        b = qubits[1]
        xa, xb = xs[a] & m, xs[b] & m
        sg ^= xa & xb & (zs[a] ^ zs[b])
        zs[b] ^= xa
        zs[a] ^= xb
    elif name == "H":
        swap = (xs[a] ^ zs[a]) & m
        xs[a] ^= swap
        zs[a] ^= swap
        sg ^= xs[a] & zs[a] & m
    elif name == "S":
        xa = xs[a] & m
        sg ^= xa & zs[a]
        zs[a] ^= xa
    elif name == "X":
        sg ^= zs[a] & m
    elif name == "Z":
        sg ^= xs[a] & m
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


def pull_back_words(gates, xs: list[int], zs: list[int], sg: int) -> int:
    """U^dag P U for U = g_G ... g_1 and every row P of the words laid out
    as by ``_to_words``, in one pass over the gates and without building a
    tableau: ``xs`` and ``zs`` are updated in place, and the new sign word
    is returned.

    Heisenberg picture: each gate's word rule takes the rows through
    g_G^dag down to g_1^dag.  Every gate but S is self-inverse; S^dag = Z S,
    so S is followed by Z.  The gates' qubits are not checked against the
    words: a ``ProdCircuit``'s gates were checked when it was built.
    """
    for name, qubits in reversed(gates):
        sg = _conjugate_words(name, qubits, xs, zs, sg)
        if name == "S":
            sg = _conjugate_words("Z", qubits, xs, zs, sg)
    return sg


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
    which conjugation by a unitary preserves.  ``xs`` and ``zs`` are one
    tableau's n words each, or a stack of tableaus' words as (T, n) uint64
    arrays, checked at once.  A matrix is symplectic iff its transpose is,
    so the n(2n-1) row pairs are checked as column pairs, with row r paired
    against row n + r: <xs[q], zs[p]> = [p == q] and every other pair of
    columns has product 0.  A column is split into its X-image rows (low n
    bits) and its Z-image rows (high n bits), one uint64 each, so a tableau
    has at most 64 qubits; <u, v> is the parity of lo(u) & hi(v) plus that
    of hi(u) & lo(v)."""
    if n > 64:
        raise ValueError(f"tableaus hold at most 64 qubits, got {n}")
    if not isinstance(xs, np.ndarray):  # one tableau's ints, of any size
        xs, zs = np.array([xs], dtype=object), np.array([zs], dtype=object)
    cols = np.concatenate((xs, zs), axis=1)
    if cols.shape[1] != 2 * n or (cols >> 2 * n != 0).any():
        raise ValueError("tableau needs 2n-bit words on n qubits")
    lo = (cols & (1 << n) - 1).astype(np.uint64)
    hi = (cols >> n).astype(np.uint64)
    half = np.bitwise_count(lo[:, :, None] & hi[:, None, :]) & 1
    omega = np.eye(2 * n, k=n, dtype=np.uint8) | np.eye(2 * n, k=-n,
                                                        dtype=np.uint8)
    if (half ^ half.transpose(0, 2, 1) != omega).any():
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


# uint64 words hold a draw's interleaved 2n-bit columns and the sweep's
# 2n-bit tableau words
_WORD_QUBITS = 32
_EVEN = 0x5555555555555555
# for a nonzero one-qubit vector v (x in bit 0, z in bit 1), the first of
# (x, z) = (0, 1), (1, 0), (1, 1) with odd symplectic product against it
_PAIR = np.array([0, 2, 1, 2], np.uint64)


def _check_word_size(n: int) -> None:
    if n < 1:
        raise ValueError("n must be positive")
    if n > _WORD_QUBITS:
        raise ValueError(f"{n} qubits exceeds the {_WORD_QUBITS} that "
                         "Clifford draws and synthesis hold in 64-bit words")


def _draw_indices(rng: np.random.Generator, n: int,
                  count: int) -> tuple[list[int], np.ndarray]:
    """count uniform indices below the group order and their (count, 2n)
    sign bits, taking from rng exactly the 32-bit words that count
    one-at-a-time draws take.  An index attempt is nbytes
    ``rng.integers(0, 256, dtype=np.uint8)`` bytes, which numpy packs four
    to a word, little-endian, and is rejected at or above the order; an
    accepted index is followed by 2n ``rng.integers(0, 2)`` signs, one word
    each, the sign being the word's top bit.  Words are drawn in bulk, never
    more than the remaining trials need at least, and topped up when
    rejections use them up, so the generator ends where the one-at-a-time
    draws leave it."""
    order = symplectic_group_order(n)
    nbits = order.bit_length()
    nbytes = (nbits + 7) // 8
    step = (nbytes + 3) // 4
    mask = (1 << nbits) - 1
    per_trial = step + 2 * n
    words = np.empty(0, np.uint32)
    indices: list[int] = []
    starts: list[int] = []
    pos = 0
    while len(indices) < count:
        if len(words) - pos < per_trial:
            more = (count - len(indices)) * per_trial - (len(words) - pos)
            words = np.concatenate(
                (words, rng.integers(0, 2 ** 32, size=more, dtype=np.uint32)))
            raw = words.astype("<u4").tobytes()
        index = int.from_bytes(raw[4 * pos:4 * pos + nbytes], "little") & mask
        pos += step
        if index < order:
            indices.append(index)
            starts.append(pos)
            pos += 2 * n
    signs = words[np.array(starts, np.intp)[:, None] + np.arange(2 * n)] >> 31
    return indices, signs


def _transvect(cols: np.ndarray, h: np.ndarray) -> None:
    """Tv_h on every column of each row of cols, in place: v maps to
    v + <h, v> h, and <h, v> is the parity of v & sh, sh being h with its x
    and z bits swapped; Tv_0 is the identity."""
    sh = (h >> 1) & _EVEN | (h & _EVEN) << 1
    cols ^= h[:, None] * (np.bitwise_count(cols & sh[:, None]) & 1)


def _ks_digits(indices, n: int) -> np.ndarray:
    """(T, n, 2) mixed-radix digits of the indices, level by level from
    qubit 0: f1 in [1, 4^j), then the 2j - 1 free bits, for j = n..1,
    as one pass per level over the whole stack of Python ints in an object
    array (np.divmod refuses those); every digit is below 2^64 for n <= 32."""
    index = np.array(indices, object)
    digits = []
    for j in range(n, 0, -1):
        s, w = (1 << 2 * j) - 1, 2 * j - 1
        f, index = index % s, index // s
        digits += (f + 1, index & ((1 << w) - 1))
        index = index >> w
    return np.array(digits).T.astype(np.uint64).reshape(len(indices), n, 2)


def _decode_columns(indices, n: int) -> np.ndarray:
    """Koenig-Smolin decode of indices in [0, order) into the interleaved
    symplectic matrices, as a (T, 2n) array of columns (bit i of column j is
    entry i, j; qubit q's x bit at 2q, its z bit at 2q+1).

    Each index is split into its mixed-radix digits, one (f1, free bits)
    pair per level (:func:`_ks_digits`); level q fixes the images of qubit
    q's two basis vectors and is applied after the levels of qubits
    q+1..n-1, so the columns are built from the last qubit up, every
    level's transvections running on the whole stack."""
    digits = _ks_digits(indices, n)
    cols = np.zeros((len(indices), 2 * n), np.uint64)
    for q in range(n - 1, -1, -1):
        y, bits = digits[:, q, 0], digits[:, q, 1]
        # (h1, h2) with Tv_h1(Tv_h2(e1)) == y, e1 = 1 being the level's x
        # bit: h2 = 0 when <e1, y> = 1 (y's bit 1); otherwise through z
        # with <e1,z> = <y,z> = 1, whose qubit 0 is (0, 1) and which also
        # pairs with y's lowest nonzero qubit when y's qubit 0 is zero
        low = np.bitwise_count((y & (~y + 1)) - 1) >> 1 << 1
        z = 2 | _PAIR[(y >> low) & 3] << low
        direct = (y == 1) | (y & 2 != 0)
        h1 = np.where(direct, 1 ^ y, 1 ^ z)
        h2 = np.where(direct, 0, z ^ y)
        # h0 is e' = e1 plus the free bits, taken through Tv_h2 and then
        # Tv_h1; bit 0 selects one of the two cosets of images of the
        # second basis vector: it toggles whether the final f1-transvection
        # is applied.  Everything is shifted into qubit q's place.
        shift = 2 * q
        h1, h2, f1 = h1 << shift, h2 << shift, y << shift
        h0 = ((1 | (bits >> 1) << 2) << shift)[:, None]
        _transvect(h0, h2)
        _transvect(h0, h1)
        level = cols[:, shift:]
        level[:, 0], level[:, 1] = 1 << shift, 2 << shift
        for h in (h2, h1, h0[:, 0], np.where(bits & 1, 0, f1)):
            _transvect(level, h)
    return cols


def _unzip(cols: np.ndarray, n: int) -> np.ndarray:
    """Interleaved columns -> tableau words: bit 2r to bit r, bit 2r+1 to
    n + r."""
    def even(v):
        v = v & _EVEN
        for shift, keep in ((1, 0x3333333333333333), (2, 0x0F0F0F0F0F0F0F0F),
                            (4, 0x00FF00FF00FF00FF), (8, 0x0000FFFF0000FFFF),
                            (16, 0x00000000FFFFFFFF)):
            v = (v | v >> shift) & keep
        return v
    return even(cols) | even(cols >> 1) << n


def random_clifford_words(n: int, count: int, rng: np.random.Generator
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """count independent, exactly uniform random tableaus (symplectic index
    + fair sign bits), as (count, n) uint64 words ``xs`` and ``zs`` and
    (count,) sign words laid out as in :class:`CliffordTableau`, all passing
    :func:`check_symplectic`.  Tableau row r is interleaved row 2r (r < n)
    or 2(r-n)+1, so ``xs[:, q]`` (``zs[:, q]``) is decoded column 2q (2q+1)
    deinterleaved.  Draws the same tableaus from the same words as count
    calls of the tests' ``reference_random_clifford``, one draw at a time,
    and leaves rng where they would."""
    _check_word_size(n)
    indices, sign_bits = _draw_indices(rng, n, count)
    cols = _decode_columns(indices, n)
    xs, zs = _unzip(cols[:, 0::2], n), _unzip(cols[:, 1::2], n)
    check_symplectic(n, xs, zs)
    signs = np.bitwise_or.reduce(
        sign_bits.astype(np.uint64) << np.arange(2 * n, dtype=np.uint64),
        axis=1)
    return xs, zs, signs


# ---------------------------------------------------------------------------
# Tableau -> gate-list synthesis (sweep to identity, emit inverses reversed)
# ---------------------------------------------------------------------------

def synthesis_steps(n: int, xs, zs, signs) -> list[tuple]:
    """Gate lists (H, S, CNOT, CZ, X, Z) realizing a stack of tableaus
    given as (T, n) words and (T,) sign words, as masked steps in the order
    the gates act: step (name, a, b, mask) applies gate name on qubits a
    (and b, for CNOT and CZ; b is a for the others) in the trials whose
    (T,) bool mask is set, a qubit being an int or a (T,) array giving each
    trial's own qubit.

    Applies gates that sweep copies of the words to the identity, then
    emits the daggered gates in reverse order.  The copies are bit planes
    as Python ints: one x plane and one z plane per qubit and one sign
    plane, bit r W + t of a plane holding row r of trial t, W being T
    rounded up to whole bytes.  Every potential gate of the sweep is one
    call of the word rule, still the only gate rule, on those planes, its
    mask being the trials whose bits call for it, copied onto the 2n row
    blocks by doubling shifts; only the pivot's H and swap act on a qubit
    that differs between trials, and they run as one masked gate per
    candidate qubit but are emitted as one step each on the per-trial
    pivot array.  Cost is O(n^2) potential gates, each a few big-int
    operations on all rows of all trials; a row's bits are read only
    where the sweep branches on them.  The steps' masks, kept as ints of
    T bits, become one (S, T) bool array in one unpack at the end.
    """
    _check_word_size(n)
    count = len(signs)
    words = np.empty((count, 2 * n + 1), np.uint64)
    words[:, :n], words[:, n:-1], words[:, -1] = xs, zs, signs
    # a bit above row 2n - 1 is never swept away (two shifts, as a shift
    # by 64 is undefined)
    stray = bool((words >> np.uint64(n) >> np.uint64(n)).any())
    # the rows are the low 2n bits of each word, in its low nbytes bytes:
    # unpacked as (2n + 1, T, 8 nbytes) bits, then packed along the trials
    nbytes = -(-n // 4)
    low = words.astype("<u8", copy=False).view(np.uint8).reshape(
        count, 2 * n + 1, 8)[:, :, :nbytes].transpose(1, 0, 2)
    rows = np.unpackbits(np.ascontiguousarray(low), bitorder="little").reshape(
        2 * n + 1, count, 8 * nbytes)[:, :, :2 * n].transpose(0, 2, 1)
    planes = [int.from_bytes(p.tobytes(), "little") for p in np.packbits(
        np.ascontiguousarray(rows), axis=2, bitorder="little")]
    xs, zs, sg = planes[:n], planes[n:-1], planes[-1]
    width = -(-count // 8) * 8
    everyone = (1 << count) - 1
    steps: list[tuple] = []
    masks: list[int] = []
    pivots: list[tuple] = []

    def spread(m: int) -> int:
        # the trial mask m copied onto every row block
        shift = width
        while shift < 2 * n * width:
            m |= m << shift
            shift <<= 1
        return m

    def apply(name: str, m: int, *qubits: int):
        nonlocal sg
        if m:
            sg = _conjugate_words(name, qubits, xs, zs, sg, spread(m))

    def emit(name: str, m: int, a, b):
        steps.append((name, a, b))
        masks.append(m)

    def bit(plane: int, r: int) -> int:
        return plane >> r * width & everyone

    def do(name: str, m: int, *qubits: int):
        # steps hold the daggered gates last first, and S^dag = Z S
        apply(name, m, *qubits)
        for gate in (("Z", "S") if name == "S" else (name,)):
            emit(gate, m, qubits[0], qubits[-1])

    def clear_row(i: int, r: int):
        # CNOT clears row r's x bits and CZ its z bits above qubit i; a gate
        # on (i, j) leaves the columns of every later j untouched, so each
        # bit is read when its turn comes
        for j in range(i + 1, n):
            do("CNOT", bit(xs[j], r), i, j)
        for j in range(i + 1, n):
            do("CZ", bit(zs[j], r), i, j)
        do("S", bit(zs[i], r), i)

    for i in range(n):
        # the pivot is the first qubit from i with an x bit on row i, else
        # the first with a z bit there (i if none); cands[k] holds the
        # trials whose pivot is i + k
        left, cands = everyone, []
        for plane in xs[i:]:
            cands.append(bit(plane, i) & left)
            left ^= cands[-1]
        lacks_x = left
        for k, plane in enumerate(zs[i:]):
            hit = bit(plane, i) & left
            cands[k] |= hit
            left ^= hit
        cands[0] |= left
        pivot = np.empty(count, np.int64)  # filled in with the masks
        pivots.append((i, pivot, cands))
        for j, c in enumerate(cands, i):
            apply("H", c & lacks_x, j)
        emit("H", lacks_x, pivot, pivot)
        for j, c in enumerate(cands[1:], i + 1):
            for a, b in ((i, j), (j, i), (i, j)):
                apply("CNOT", c, a, b)
        for a, b in ((i, pivot), (pivot, i), (i, pivot)):
            emit("CNOT", everyone ^ cands[0], a, b)
        clear_row(i, i)
        # Same sweep for the Z_i image, flipped into the X picture around i.
        do("H", everyone, i)
        clear_row(i, n + i)
        do("H", everyone, i)
        do("Z", bit(sg, i), i)
        do("X", bit(sg, n + i), i)

    if stray or sg or xs + zs != [everyone << r * width
                                  for r in range(2 * n)]:
        raise AssertionError("tableau sweep failed to reach identity")
    masks += (c for *_, cands in pivots for c in cands)
    packed = b"".join(m.to_bytes(width // 8, "little") for m in masks)
    bits = np.unpackbits(np.frombuffer(packed, np.uint8).reshape(
        len(masks), width // 8), axis=1, count=count,
        bitorder="little").view(bool)
    row = len(steps)
    for i, pivot, cands in pivots:
        pivot[:] = i + bits[row:row + n - i].argmax(axis=0)
        row += n - i
    return [(*step, mask) for step, mask in zip(steps[::-1],
                                               bits[:len(steps)][::-1])]


def replay_steps(n: int, steps, count: int) -> tuple[np.ndarray, ...]:
    """The stack of count tableaus that masked steps laid out as by
    :func:`synthesis_steps` realize: identity words taken through each step
    in order, as (count, n) words ``xs`` and ``zs`` and (count,) signs."""
    trials = np.arange(count)
    xs = np.repeat(1 << np.arange(n, dtype=np.uint64)[:, None], count, axis=1)
    zs = xs << n
    sg = np.zeros(count, np.uint64)
    for name, a, b, mask in steps:
        rows = tuple(q if isinstance(q, int) else (q, trials) for q in (a, b))
        sg = _conjugate_words(name, rows, xs, zs, sg, -mask.astype(np.uint64))
    return xs.T, zs.T, sg


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

    @classmethod
    def _make(cls, bloch: tuple[tuple[float, float, float], ...]):
        """The state of these float triples, unchecked, for a caller that
        has checked each one as ``__post_init__`` does."""
        state = object.__new__(cls)
        state.__dict__["bloch"] = bloch
        return state

    @property
    def n(self) -> int:
        return len(self.bloch)

    @classmethod
    def uniform(cls, bloch, n: int) -> "ProductState":
        """n qubits, each in the one Bloch vector bloch; n must be >= 1."""
        if n < 1:
            raise ValueError("n must be positive")
        return cls((tuple(bloch),) * n)

    @classmethod
    def zero(cls, n: int) -> "ProductState":
        return cls.uniform((0.0, 0.0, 1.0), n)

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
