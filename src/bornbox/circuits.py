"""Circuit families, outcome patterns, and the circuit file format.

Three families are supported:

``prod``
    Arbitrary product-state input, a list of Clifford gates
    (H, S, X, Z, CNOT, CZ), computational-basis measurement of the first k
    qubits.

``iqp``
    X-program: every row of a binary matrix is exponentiated at angle pi/4
    (``exp(i pi/4 X^row)``) acting on ``|0..0>``, then the first k qubits are
    measured in the computational basis.

``encoded``
    Classical parity encoding wrapped around an inner circuit: sample the
    inner circuit, keep the first measured bit X, draw Y uniform over n-bit
    strings (n = inner measured count), output ``(X xor Par(Y), Y)``.

File format (one directive per line, ``#`` starts a comment)::

    family prod|iqp|encoded
    qubits <n>                  # prod, iqp
    measure <k>                 # optional, defaults to n
    prep <i> bloch <rx> <ry> <rz>
    prep <i> gates <word>+      # words from H S T X Y Z SDG TDG, applied to |0>
    gate <NAME> <q> [<q2>]
    xrow <b_1> ... <b_n>        # iqp rows, one per line
    inner <path>                # encoded; or "inner" followed by an
                                # indented block holding the inner circuit

Outcome patterns are strings over ``{0, 1, *}``; ``*`` marks a position that
is marginalized over.  Distribution indices use the big-endian reading of the
outcome string (first measured qubit is the most significant bit), so index
order coincides with lexicographic outcome order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .stabcore import GATE_ARITY, GateApp, ProductState


class CircuitSyntaxError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class OutcomePattern:
    """Measurement event over {0, 1, *}; ``*`` positions are summed over."""

    trits: str

    def __post_init__(self):
        if not self.trits:
            raise ValueError("empty pattern")
        if any(c not in "01*" for c in self.trits):
            raise ValueError(f"pattern {self.trits!r} must be over 0, 1, *")

    def __str__(self) -> str:
        return self.trits

    @property
    def k(self) -> int:
        return len(self.trits)

    @property
    def fixed(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, int(c)) for i, c in enumerate(self.trits) if c != "*")

    @property
    def wild_count(self) -> int:
        return self.trits.count("*")

    @property
    def is_full(self) -> bool:
        return self.wild_count == 0


def check_pattern_length(pattern: OutcomePattern, k: int) -> None:
    """Refuses a pattern that is not over the k measured bits."""
    if pattern.k != k:
        raise ValueError(f"pattern length {pattern.k} != measured count {k}")


def _check_counts(n: int, k: int) -> None:
    if n < 1:
        raise ValueError("need at least one qubit")
    if not 1 <= k <= n:
        raise ValueError("measured count k must satisfy 1 <= k <= n")


@dataclass(frozen=True)
class ProdCircuit:
    n: int
    k: int
    state: ProductState
    gates: tuple[GateApp, ...] = ()

    def __post_init__(self):
        _check_counts(self.n, self.k)
        if self.state.n != self.n:
            raise ValueError("prep state size != qubit count")
        for g in self.gates:
            if max(g.qubits) >= self.n:
                raise ValueError(f"gate {g.name} touches qubit outside range")
        object.__setattr__(self, "gates", tuple(self.gates))

    @property
    def family(self) -> str:
        return "prod"


@dataclass(frozen=True)
class IqpCircuit:
    n: int
    k: int
    rows: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        _check_counts(self.n, self.k)
        rows = tuple(tuple(int(b) for b in row) for row in self.rows)
        for row in rows:
            if len(row) != self.n:
                raise ValueError("xrow length != qubit count")
            if any(b not in (0, 1) for b in row):
                raise ValueError("xrow entries must be 0/1")
        object.__setattr__(self, "rows", rows)

    @property
    def family(self) -> str:
        return "iqp"

    def row_matrix(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.uint8).reshape(len(self.rows), self.n)


@dataclass(frozen=True)
class EncodedCircuit:
    inner: "Circuit"

    @property
    def family(self) -> str:
        return "encoded"

    @property
    def y_bits(self) -> int:
        """Length of the uniform pad Y (= inner measured count)."""
        return self.inner.k

    @property
    def k(self) -> int:
        return self.y_bits + 1

    @property
    def n(self) -> int:
        return self.inner.n


Circuit = Union[ProdCircuit, IqpCircuit, EncodedCircuit]


def ce_encode(inner: Circuit) -> EncodedCircuit:
    """Wrap a circuit in the parity encoding (X xor Par(Y), Y)."""
    return EncodedCircuit(inner)


# ---------------------------------------------------------------------------
# Single-qubit preparation words
# ---------------------------------------------------------------------------

_SQ = math.sqrt(0.5)
PREP_GATES = {
    "H": np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "TDG": np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def bloch_from_words(words) -> tuple[float, float, float]:
    """Bloch vector of (last word) ... (first word) |0>."""
    psi = np.array([1.0, 0.0], dtype=complex)
    for w in words:
        key = w.upper()
        if key not in PREP_GATES:
            raise ValueError(f"unknown prep gate word {w!r}")
        psi = PREP_GATES[key] @ psi
    rx = 2.0 * (psi[0].conjugate() * psi[1]).real
    ry = 2.0 * (psi[0].conjugate() * psi[1]).imag
    rz = (abs(psi[0]) ** 2 - abs(psi[1]) ** 2).real
    return (float(rx), float(ry), float(rz))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_pattern(text: str) -> OutcomePattern:
    try:
        return OutcomePattern(text.strip())
    except ValueError as exc:
        raise CircuitSyntaxError(str(exc)) from exc


def parse_circuit(text: str, base_dir: str | Path | None = None) -> Circuit:
    numbered = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        if line.strip():
            numbered.append((idx, line))
    return _parse_lines(numbered, base_dir)


def _parse_lines(numbered, base_dir) -> Circuit:
    """A circuit from its (line number in the file, text) pairs, comments
    and blank lines already dropped."""
    if not numbered:
        raise CircuitSyntaxError("empty circuit description")

    first_no, first = numbered[0]
    head = first.split()
    if len(head) != 2 or head[0] != "family":
        raise CircuitSyntaxError("first directive must be 'family <name>'", first_no)
    family = head[1]
    if family in _BODY_DIRECTIVES:
        return _parse_program(family, numbered[1:])
    if family == "encoded":
        return _parse_encoded(numbered[1:], base_dir)
    raise CircuitSyntaxError(f"unknown family {family!r}", first_no)


def _parse_int(tok: str, what: str, line: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise CircuitSyntaxError(f"bad {what} {tok!r}", line) from None


def _parse_gate(toks: list[str], n: int, line: int) -> GateApp:
    """The gate on a split ``gate`` line of an n-qubit circuit."""
    if len(toks) < 3:
        raise CircuitSyntaxError("gate needs a name and qubits", line)
    name = toks[1]
    if name not in GATE_ARITY:
        raise CircuitSyntaxError(f"unknown gate {name!r}", line)
    try:
        qs = tuple(map(int, toks[2:]))
    except ValueError:  # name the first bad token
        qs = tuple(_parse_int(t, "qubit index", line) for t in toks[2:])
    try:
        gate = GateApp(name, qs)
    except ValueError as exc:
        raise CircuitSyntaxError(str(exc), line) from exc
    if max(qs) >= n:
        raise CircuitSyntaxError("gate qubit out of range", line)
    return gate


def _parse_float(tok: str, what: str, line: int) -> float:
    try:
        value = float(tok)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise CircuitSyntaxError(f"bad {what} {tok!r}", line)
    return value


# the directives each family takes besides qubits and measure
_BODY_DIRECTIVES = {"prod": ("prep", "gate"), "iqp": ("xrow",)}


def _parse_program(family: str, body) -> Circuit:
    """The prod and iqp families: one directive loop, so qubits, measure
    and the final validation are read the same way for both."""
    n = None
    k = None
    preps: dict[int, tuple[float, float, float]] = {}
    gates: list[GateApp] = []
    # equal gate lines of this file share one GateApp: a line seen before
    # was accepted under the same family and qubit count, so it is not
    # split, converted or validated again
    built: dict[str, GateApp] = {}
    rows: list[tuple[int, ...]] = []
    for line_no, line in body:
        gate = built.get(line)
        if gate is not None:
            gates.append(gate)
            continue
        toks = line.split()
        kind = toks[0]
        if kind == "gate" and n is not None and family == "prod":
            gate = built[line] = _parse_gate(toks, n, line_no)
            gates.append(gate)
            continue
        if kind in ("qubits", "measure"):
            if len(toks) != 2:
                raise CircuitSyntaxError(f"{kind} takes one integer", line_no)
            if (n if kind == "qubits" else k) is not None:
                raise CircuitSyntaxError(f"duplicate {kind} directive", line_no)
            if kind == "qubits":
                n = _parse_int(toks[1], "qubit count", line_no)
            else:
                k = _parse_int(toks[1], "measured count", line_no)
            continue
        if kind not in _BODY_DIRECTIVES[family]:
            raise CircuitSyntaxError(
                f"unknown directive {kind!r} in {family} circuit", line_no)
        if n is None:
            raise CircuitSyntaxError(f"{kind} before qubits", line_no)
        if kind == "prep":
            if len(toks) < 3:
                raise CircuitSyntaxError("prep needs qubit and form", line_no)
            q = _parse_int(toks[1], "qubit index", line_no)
            if not 0 <= q < n:
                raise CircuitSyntaxError(f"prep qubit {q} out of range", line_no)
            if q in preps:
                raise CircuitSyntaxError(f"duplicate prep for qubit {q}", line_no)
            if toks[2] == "bloch":
                if len(toks) != 6:
                    raise CircuitSyntaxError("prep bloch needs 3 components", line_no)
                vec = tuple(_parse_float(t, "bloch component", line_no)
                            for t in toks[3:6])
                if sum(c * c for c in vec) > 1.0 + 1e-9:
                    raise CircuitSyntaxError("bloch vector outside unit ball", line_no)
                preps[q] = vec
            elif toks[2] == "gates":
                if len(toks) < 4:
                    raise CircuitSyntaxError("prep gates needs at least one word", line_no)
                try:
                    preps[q] = bloch_from_words(toks[3:])
                except ValueError as exc:
                    raise CircuitSyntaxError(str(exc), line_no) from exc
            else:
                raise CircuitSyntaxError(f"unknown prep form {toks[2]!r}", line_no)
        else:
            if len(toks) != n + 1:
                raise CircuitSyntaxError(f"xrow needs {n} bits", line_no)
            bits = tuple(_parse_int(t, "xrow bit", line_no) for t in toks[1:])
            if any(b not in (0, 1) for b in bits):
                raise CircuitSyntaxError("xrow entries must be 0/1", line_no)
            rows.append(bits)
    if n is None:
        raise CircuitSyntaxError("missing qubits directive")
    k = n if k is None else k
    try:
        if family == "iqp":
            return IqpCircuit(n, k, tuple(rows))
        bloch = tuple(preps.get(q, (0.0, 0.0, 1.0)) for q in range(n))
        return ProdCircuit(n, k, ProductState(bloch), tuple(gates))
    except ValueError as exc:
        raise CircuitSyntaxError(str(exc)) from exc


def _parse_encoded(body, base_dir) -> EncodedCircuit:
    if not body:
        raise CircuitSyntaxError("encoded circuit needs an inner directive")
    line_no, line = body[0]
    toks = line.split()
    if toks[0] != "inner":
        raise CircuitSyntaxError("encoded circuit expects 'inner'", line_no)
    if len(toks) == 2:
        if base_dir is None:
            base_dir = Path.cwd()
        path = Path(base_dir) / toks[1]
        if len(body) > 1:
            raise CircuitSyntaxError("unexpected directives after inner path", body[1][0])
        try:
            text = path.read_text()
        except OSError as exc:
            raise CircuitSyntaxError(f"cannot read inner circuit {path}: {exc}", line_no)
        return EncodedCircuit(parse_circuit(text, base_dir=path.parent))
    if len(toks) > 2:
        raise CircuitSyntaxError("inner takes at most one path", line_no)

    # Inline form: the indented lines after the inner directive, dedented,
    # each keeping its line number in the file.
    block = []
    indent = None
    for no, text in body[1:]:
        if not text[0].isspace():
            raise CircuitSyntaxError("unindented directive inside inner block",
                                     line_no)
        width = len(text) - len(text.lstrip())
        if indent is None:
            indent = width
        if width < indent:
            raise CircuitSyntaxError("inconsistent indentation in inner block",
                                     line_no)
        block.append((no, text[indent:]))
    if not block:
        raise CircuitSyntaxError("empty inner block", line_no)
    return EncodedCircuit(_parse_lines(block, base_dir))
