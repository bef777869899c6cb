"""Circuit file format: parsing (checked against a serializer kept here in
the tests), patterns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornbox.circuits import (CircuitSyntaxError, EncodedCircuit, IqpCircuit,
                              OutcomePattern, ProdCircuit, bloch_from_words,
                              ce_encode, parse_circuit, parse_pattern)
from bornbox.stabcore import GateApp, ProductState

from helpers import ghz_circuit, pattern_matches, serialize_circuit


def test_parse_basic_prod():
    text = """
# comment
family prod
qubits 2
measure 1
prep 0 gates H
gate CNOT 0 1
"""
    c = parse_circuit(text)
    assert isinstance(c, ProdCircuit)
    assert c.n == 2
    assert c.k == 1
    assert np.allclose(c.state.bloch[0], (1, 0, 0))
    assert c.gates == (GateApp("CNOT", (0, 1)),)


def test_measure_defaults_to_n():
    c = parse_circuit("family prod\nqubits 3\ngate H 0\n")
    assert c.k == 3
    ci = parse_circuit("family iqp\nqubits 2\nxrow 1 0\n")
    assert ci.k == 2


def test_parse_prep_bloch():
    c = parse_circuit("family prod\nqubits 1\nprep 0 bloch 0.1 -0.25 0.3\n")
    assert c.state.bloch[0] == (0.1, -0.25, 0.3)


def test_parse_iqp():
    c = parse_circuit("family iqp\nqubits 3\nmeasure 2\nxrow 1 0 1\nxrow 0 1 1\n")
    assert isinstance(c, IqpCircuit)
    assert c.rows == ((1, 0, 1), (0, 1, 1))
    assert c.k == 2
    assert c.row_matrix().shape == (2, 3)


def test_parse_encoded_inline_block():
    text = "family encoded\ninner\n  family prod\n  qubits 1\n"
    c = parse_circuit(text)
    assert isinstance(c, EncodedCircuit)
    assert c.inner == ProdCircuit(1, 1, ProductState.zero(1), ())
    assert c.k == 2
    assert c.y_bits == 1


def test_parse_encoded_inner_file(tmp_path):
    (tmp_path / "inner.qc").write_text("family iqp\nqubits 2\nxrow 1 1\n")
    c = parse_circuit("family encoded\ninner inner.qc\n", base_dir=tmp_path)
    assert isinstance(c, EncodedCircuit)
    assert c.inner == IqpCircuit(2, 2, ((1, 1),))


def test_parse_encoded_nested():
    ci = IqpCircuit(3, 3, ((1, 0, 1), (0, 1, 1)))
    ce2 = ce_encode(ce_encode(ci))
    assert parse_circuit(serialize_circuit(ce2)) == ce2


def test_roundtrip_examples():
    c = ProdCircuit(3, 2, ProductState(((0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
                                        (0.1, -0.25, 0.3))),
                    (GateApp("H", (0,)), GateApp("CNOT", (0, 2)),
                     GateApp("CZ", (1, 2))))
    assert parse_circuit(serialize_circuit(c)) == c
    ci = IqpCircuit(3, 3, ((1, 0, 1), (0, 1, 1)))
    assert parse_circuit(serialize_circuit(ci)) == ci
    ce = ce_encode(ci)
    assert parse_circuit(serialize_circuit(ce)) == ce


@pytest.mark.parametrize("text,message", [
    ("", "empty circuit description"),
    ("   \n# only comments\n", "empty circuit description"),
    ("qubits 2\n", "line 1: first directive must be 'family <name>'"),
    ("family weird\n", "line 1: unknown family 'weird'"),
    ("family prod\nqubits 2 3\n", "line 2: qubits takes one integer"),
    ("family prod\nqubits 2\nmeasure\n", "line 3: measure takes one integer"),
    ("family prod\nprep 0 bloch 0 0 1\n", "line 2: prep before qubits"),
    ("family prod\nqubits 1\nprep 0\n", "line 3: prep needs qubit and form"),
    ("family prod\nqubits 1\nprep 1 bloch 0 0 1\n", "line 3: prep qubit 1 out of range"),
    ("family prod\nqubits 1\nprep 0 bloch 0 0 1\nprep 0 bloch 1 0 0\n",
     "line 4: duplicate prep for qubit 0"),
    ("family prod\nqubits 1\nprep 0 bloch 0 0\n", "line 3: prep bloch needs 3 components"),
    ("family prod\nqubits 1\nprep 0 bloch 1 1 1\n", "line 3: bloch vector outside unit ball"),
    ("family prod\nqubits 1\nprep 0 bloch nan 0 0\n", "line 3: bad bloch component 'nan'"),
    ("family prod\nqubits 1\nprep 0 bloch 0 inf 0\n", "line 3: bad bloch component 'inf'"),
    ("family prod\nqubits 1\nprep 0 bloch 0 0 -inf\n", "line 3: bad bloch component '-inf'"),
    ("family prod\nqubits 1\nprep 0 bloch 0 0 x\n", "line 3: bad bloch component 'x'"),
    ("family prod\nqubits 1\nprep 0 gates\n", "line 3: prep gates needs at least one word"),
    ("family prod\nqubits 1\nprep 0 magic H\n", "line 3: unknown prep form 'magic'"),
    ("family prod\ngate H 0\n", "line 2: gate before qubits"),
    ("family prod\nqubits 1\ngate H\n", "line 3: gate needs a name and qubits"),
    ("family prod\nqubits 1\ngate Q 0\n", "line 3: unknown gate 'Q'"),
    ("family prod\nqubits 2\ngate CNOT 0 x\n", "line 3: bad qubit index 'x'"),
    # a repeated bad line is refused at its first occurrence
    ("family prod\nqubits 2\ngate CNOT 1 1\ngate H 0\ngate CNOT 1 1\n",
     "line 3: gate CNOT qubits must be distinct"),
    ("family prod\nqubits 1\ngate H 1\n", "line 3: gate qubit out of range"),
    ("family prod\nqubits 1\nxrow 1\n", "line 3: unknown directive 'xrow' in prod circuit"),
    ("family prod\ngate H zero\n", "line 2: gate before qubits"),
    ("family prod\n", "missing qubits directive"),
    ("family iqp\nxrow 1\n", "line 2: xrow before qubits"),
    ("family iqp\nqubits 2\nxrow 1\n", "line 3: xrow needs 2 bits"),
    ("family iqp\nqubits 2\nxrow 1 2\n", "line 3: xrow entries must be 0/1"),
    ("family iqp\nqubits 1\ngate H 0\n", "line 3: unknown directive 'gate' in iqp circuit"),
    ("family iqp\n", "missing qubits directive"),
    ("family encoded\n", "encoded circuit needs an inner directive"),
    ("family encoded\nqubits 1\n", "line 2: encoded circuit expects 'inner'"),
    ("family encoded\ninner a b\n", "line 2: inner takes at most one path"),
    ("family encoded\ninner\nfamily prod\n", "line 2: unindented directive inside inner block"),
    ("family encoded\ninner\n", "line 2: empty inner block"),
    ("family prod\nqubits 3\nprep 2 bloch 1 0 0\nqubits 2\ngate H 0\n",
     "line 4: duplicate qubits directive"),
    ("family prod\nqubits 2\nmeasure 1\nmeasure 2\n",
     "line 4: duplicate measure directive"),
    ("family iqp\nqubits 2\nxrow 1 0\nqubits 2\n", "line 4: duplicate qubits directive"),
    ("family prod\nqubits 2\ngate CNOT 0 1\nqubits 1\ngate CNOT 0 1\n",
     "line 4: duplicate qubits directive"),
    # errors inside an inline block name the line of the file
    ("family encoded\n# c\n\ninner\n  family prod\n  qubits 1\n  gate H 5\n",
     "line 7: gate qubit out of range"),
    ("family encoded\ninner\n  family encoded\n  inner\n    family iqp\n"
     "    qubits 2\n    xrow 1 2\n", "line 7: xrow entries must be 0/1"),
    ("family encoded\ninner a.qc\nqubits 1\n",
     "line 3: unexpected directives after inner path"),
    ("family prod\nqubits 1\nprep 0 gates Q\n", "line 3: unknown prep gate word 'Q'"),
])
def test_parse_errors(text, message):
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit(text)
    assert str(err.value) == message


def test_inconsistent_inner_indent():
    text = "family encoded\ninner\n    family prod\n  qubits 1\n"
    with pytest.raises(CircuitSyntaxError, match="inconsistent indentation"):
        parse_circuit(text)


def test_missing_inner_file(tmp_path):
    with pytest.raises(CircuitSyntaxError, match="cannot read inner circuit"):
        parse_circuit("family encoded\ninner nope.qc\n", base_dir=tmp_path)


def test_bad_numeric_tokens():
    with pytest.raises(CircuitSyntaxError, match="bad qubit count 'two'"):
        parse_circuit("family prod\nqubits two\n")
    with pytest.raises(CircuitSyntaxError, match="bad bloch component"):
        parse_circuit("family prod\nqubits 1\nprep 0 bloch a 0 0\n")


def test_gate_repeated_qubit_is_syntax_error():
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("family prod\nqubits 2\ngate CNOT 1 1\n")


def test_equal_gate_lines_share_one_gate_within_a_parse():
    text = "family prod\nqubits 2\ngate CNOT 0 1\ngate H 1\ngate CNOT 0 1\n"
    first, second = parse_circuit(text), parse_circuit(text)
    assert first.gates[0] is first.gates[2]
    assert first.gates == second.gates
    assert first.gates[0] is not second.gates[0]


@pytest.mark.parametrize("line, message", [
    ("gate CNOT 0 1", None),
    ("gate CNOT 1 1", "line 3: gate CNOT qubits must be distinct"),
    ("gate H -1", "line 3: negative qubit index"),
    ("gate CNOT 0 999999", "line 3: gate qubit out of range"),
])
def test_parsing_leaves_the_intern_table_alone(line, message):
    """Gates read from a file, accepted or refused, parse the same way on a
    second read: nothing from outside input outlives a parse."""
    for _ in range(2):
        if message is None:
            parse_circuit(f"family prod\nqubits 2\n{line}\n")
            continue
        with pytest.raises(CircuitSyntaxError) as exc:
            parse_circuit(f"family prod\nqubits 2\n{line}\n")
        assert str(exc.value) == message


@pytest.mark.parametrize("n, k, message", [
    (0, 1, "need at least one qubit"),
    (2, 3, "measured count k must satisfy 1 <= k <= n"),
])
def test_iqp_circuit_refuses_bad_counts(n, k, message):
    with pytest.raises(ValueError, match=message):
        IqpCircuit(n, k)


def test_measure_out_of_range():
    with pytest.raises(CircuitSyntaxError, match="measured count k"):
        parse_circuit("family prod\nqubits 2\nmeasure 3\n")
    with pytest.raises(CircuitSyntaxError, match="measured count k"):
        parse_circuit("family prod\nqubits 2\nmeasure 0\n")


def test_bloch_from_words():
    assert np.allclose(bloch_from_words(["H"]), (1, 0, 0))
    assert np.allclose(bloch_from_words(["H", "S"]), (0, 1, 0))
    assert np.allclose(bloch_from_words(["X"]), (0, 0, -1))
    assert np.allclose(bloch_from_words(["h", "t"]),
                       (np.sqrt(0.5), np.sqrt(0.5), 0))
    with pytest.raises(ValueError, match="unknown prep gate word"):
        bloch_from_words(["Q"])


def test_outcome_pattern_api():
    p = OutcomePattern("0*1")
    assert p.k == 3
    assert p.fixed == ((0, 0), (2, 1))
    assert p.wild_count == 1
    assert not p.is_full
    assert OutcomePattern("01").is_full
    assert pattern_matches(p, "001")
    assert pattern_matches(p, "011")
    assert not pattern_matches(p, "101")
    with pytest.raises(ValueError):
        pattern_matches(p, "01")
    with pytest.raises(ValueError):
        OutcomePattern("")
    with pytest.raises(ValueError):
        OutcomePattern("012")
    assert str(p) == "0*1"


def test_parse_pattern_wraps_errors():
    assert parse_pattern(" 01* ") == OutcomePattern("01*")
    with pytest.raises(CircuitSyntaxError):
        parse_pattern("0x")


def test_circuit_validation():
    with pytest.raises(ValueError, match="at least one qubit"):
        ProdCircuit(0, 0, ProductState(()), ())
    with pytest.raises(ValueError, match="measured count"):
        ProdCircuit(2, 0, ProductState.zero(2), ())
    with pytest.raises(ValueError, match="prep state size"):
        ProdCircuit(2, 2, ProductState.zero(1), ())
    with pytest.raises(ValueError, match="outside range"):
        ProdCircuit(1, 1, ProductState.zero(1), (GateApp("H", (3,)),))
    with pytest.raises(ValueError, match="xrow length"):
        IqpCircuit(2, 2, ((1,),))
    with pytest.raises(ValueError, match="xrow entries"):
        IqpCircuit(1, 1, ((2,),))
    assert ghz_circuit(3).family == "prod"
    assert IqpCircuit(1, 1, ()).family == "iqp"
    assert ce_encode(ghz_circuit(2)).family == "encoded"


blochs = st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)).filter(
    lambda v: v[0] ** 2 + v[1] ** 2 + v[2] ** 2 <= 1.0)


@st.composite
def prod_circuits(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    bloch = tuple(draw(blochs) for _ in range(n))
    gates = []
    for _ in range(draw(st.integers(0, 6))):
        name = draw(st.sampled_from(["H", "S", "X", "Z", "CNOT", "CZ"]))
        if name in ("CNOT", "CZ"):
            if n < 2:
                continue
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 1).filter(lambda q: q != a))
            gates.append(GateApp(name, (a, b)))
        else:
            gates.append(GateApp(name, (draw(st.integers(0, n - 1)),)))
    return ProdCircuit(n, k, ProductState(bloch), tuple(gates))


@st.composite
def iqp_circuits(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    m = draw(st.integers(0, 6))
    rows = tuple(tuple(draw(st.integers(0, 1)) for _ in range(n))
                 for _ in range(m))
    return IqpCircuit(n, k, rows)


circuits = st.one_of(
    prod_circuits(),
    iqp_circuits(),
    prod_circuits().map(ce_encode),
    iqp_circuits().map(ce_encode),
    iqp_circuits().map(lambda c: ce_encode(ce_encode(c))),
)


@settings(max_examples=120, deadline=None)
@given(circuits)
def test_serialize_parse_roundtrip(c):
    assert parse_circuit(serialize_circuit(c)) == c
