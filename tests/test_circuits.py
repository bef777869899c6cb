"""Circuit file format: parsing (checked against a serializer kept here in
the tests), patterns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornbox.circuits import (CircuitSyntaxError, EncodedCircuit, IqpCircuit,
                              OutcomePattern, ProdCircuit, _parse_canonical,
                              _parse_each_line, bloch_from_words,
                              parse_circuit, parse_pattern)
from bornbox.stabcore import GATE_ARITY, GateApp, ProductState

from helpers import ghz_circuit, pattern_matches, serialize_circuit
from reference import reference_parse_gate


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
    ce2 = EncodedCircuit(EncodedCircuit(ci))
    assert parse_circuit(serialize_circuit(ce2)) == ce2


def test_roundtrip_examples():
    c = ProdCircuit(3, 2, ProductState(((0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
                                        (0.1, -0.25, 0.3))),
                    (GateApp("H", (0,)), GateApp("CNOT", (0, 2)),
                     GateApp("CZ", (1, 2))))
    assert parse_circuit(serialize_circuit(c)) == c
    ci = IqpCircuit(3, 3, ((1, 0, 1), (0, 1, 1)))
    assert parse_circuit(serialize_circuit(ci)) == ci
    ce = EncodedCircuit(ci)
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
    ("family prod\nqubits 4194305\nmeasure 1\ngate H 0\n",
     "line 2: qubit count 4194305 exceeds the limit of 4194304"),
    ("family iqp\nqubits 100000000\n",
     "line 2: qubit count 100000000 exceeds the limit of 4194304"),
    ("family encoded\ninner\n  family prod\n  qubits 4194305\n",
     "line 4: qubit count 4194305 exceeds the limit of 4194304"),
])
def test_parse_errors(text, message):
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit(text)
    assert str(err.value) == message


def test_register_cap_takes_its_own_count(monkeypatch):
    monkeypatch.setattr("bornbox.circuits.MAX_QUBITS", 3)
    assert parse_circuit("family prod\nqubits 3\ngate H 2\n").n == 3
    with pytest.raises(CircuitSyntaxError,
                       match="line 2: qubit count 4 exceeds the limit of 3"):
        parse_circuit("family prod\nqubits 4\ngate H 2\n")


def test_inconsistent_inner_indent():
    text = "family encoded\ninner\n    family prod\n  qubits 1\n"
    with pytest.raises(CircuitSyntaxError, match="inconsistent indentation"):
        parse_circuit(text)


def test_missing_inner_file(tmp_path):
    with pytest.raises(CircuitSyntaxError, match="cannot read inner circuit"):
        parse_circuit("family encoded\ninner nope.qc\n", base_dir=tmp_path)


def test_inner_file_is_read_as_utf8(tmp_path):
    """An inner file's bytes are decoded as UTF-8, and bytes that are not
    UTF-8 are refused at the inner line, as an unreadable file is."""
    (tmp_path / "cafe.qc").write_bytes(
        "family prod\nqubits 1\n# café\ngate X 0\n".encode("utf-8"))
    c = parse_circuit("family encoded\ninner cafe.qc\n", base_dir=tmp_path)
    assert c.inner.gates == (GateApp("X", (0,)),)
    (tmp_path / "bad.qc").write_bytes(b"family prod\nqubits 1\n\xff\n")
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit("family encoded\ninner bad.qc\n", base_dir=tmp_path)
    assert str(err.value) == (
        f"line 2: cannot read inner circuit {tmp_path / 'bad.qc'}: 'utf-8' "
        "codec can't decode byte 0xff in position 21: invalid start byte")


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


@st.composite
def gate_files(draw):
    """(n, gate lines) at the edge of what the parser takes: names in and
    outside the gate set, qubit tokens in range, at n, negative, or spelled
    in forms int() reads but the canonical pass does not, repeated
    lines."""
    n = draw(st.one_of(st.integers(1, 4), st.integers(1, 32)))
    # half of the tokens in range, so that a file's first fault is often
    # one of the others
    in_range = st.integers(0, n - 1).map(str)
    token = st.one_of(in_range, in_range, st.just(str(n)),
                      st.sampled_from(["-1", "-0", "007", "+3", "3_0", "x"]))
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        name = draw(st.sampled_from(["H", "CNOT", "CZ", "Q", "h"]))
        count = draw(st.one_of(st.just(GATE_ARITY.get(name, 1)),
                               st.integers(0, 3)))
        toks = draw(st.lists(token, min_size=count, max_size=count))
        lines.append(" ".join(["gate", name, *toks]))
    lines += draw(st.lists(st.sampled_from(lines), max_size=3))
    return n, draw(st.permutations(lines))


@settings(max_examples=300, deadline=None)
@given(gate_files())
def test_gate_lines_parse_as_the_per_token_reference(case):
    n, lines = case
    text = f"family prod\nqubits {n}\n" + "".join(f"{line}\n" for line in lines)
    try:
        want = tuple(reference_parse_gate(line.split(), n, no)
                     for no, line in enumerate(lines, start=3))
    except CircuitSyntaxError as exc:
        with pytest.raises(CircuitSyntaxError) as got:
            parse_circuit(text)
        assert str(got.value) == str(exc)
    else:
        gates = parse_circuit(text).gates
        assert gates == want
        assert all(type(g) is GateApp for g in gates)


# the ways a whole prod file can leave the canonical form, each applied to a
# file as a program writes it: other spellings the per-line parser reads
# alike, and faults it names
RESPELLINGS = ["comment", "blank", "spacing", "splitter", "index", "arity",
               "repeated-qubit", "out-of-range", "gate-before-qubits",
               "prep-after-gate", "prep-gates", "measure", "bloch",
               "duplicate-prep", "iqp", "crlf", "cr", "no-final-newline"]


def respell(draw, lines: list[str], n: int, kind: str) -> list[str]:
    """lines with one respelling of the named kind, at a drawn place."""
    lines = list(lines)
    at = draw(st.integers(1, len(lines)))
    line = draw(st.integers(0, len(lines) - 1))
    body = [i for i, text in enumerate(lines) if text[:5] in ("prep ", "gate ")]
    preps = [i for i in body if lines[i].startswith("prep ")]
    gates = [i for i in body if lines[i].startswith("gate ")]
    q = draw(st.integers(0, n - 1))
    if kind == "comment":
        if draw(st.booleans()):
            lines.insert(at, "# a comment")
        else:
            lines[line] += " # trailing"
    elif kind == "blank":
        lines.insert(at, draw(st.sampled_from(["", " ", "\t"])))
    elif kind == "spacing":
        run = draw(st.sampled_from(["\t", "  ", " \t "]))
        lines[line] = draw(st.sampled_from([
            lines[line].replace(" ", run, 1), run + lines[line],
            lines[line] + run]))
    elif kind == "splitter":
        cut = draw(st.integers(0, len(lines[line])))
        mark = draw(st.sampled_from(["\x0c", "\x1c", "\x85"]))
        lines[line] = lines[line][:cut] + mark + lines[line][cut:]
    elif kind == "index" and body:
        i = draw(st.sampled_from(body))
        toks = lines[i].split(" ")
        spots = [1] if toks[0] == "prep" else range(2, len(toks))
        if spots:
            spot = draw(st.sampled_from(spots))
            toks[spot] = draw(st.sampled_from(
                [f"00{toks[spot]}", f"+{toks[spot]}", f"{toks[spot]}x", "1_0",
                 "٣"]))
            lines[i] = " ".join(toks)
    elif kind == "arity" and gates:
        i = draw(st.sampled_from(gates))
        lines[i] = (lines[i] + f" {q}" if draw(st.booleans())
                    else lines[i].rsplit(" ", 1)[0])
    elif kind == "repeated-qubit":
        lines.insert(at, f"gate {draw(st.sampled_from(['CNOT', 'CZ']))} {q} {q}")
    elif kind == "out-of-range":
        lines.insert(at, draw(st.sampled_from(
            [f"gate H {n}", f"gate CZ {q} {n}", f"prep {n} bloch 0.0 0.0 1.0"])))
    elif kind == "gate-before-qubits":
        lines.insert(1, f"gate X {q}")
    elif kind == "prep-after-gate" and preps and gates:
        prep = lines.pop(draw(st.sampled_from(preps)))
        lines.insert(draw(st.integers(min(gates), len(lines))), prep)
    elif kind == "prep-gates" and preps:
        i = draw(st.sampled_from(preps))
        lines[i] = " ".join(lines[i].split(" ")[:2] + ["gates", "H", "S"])
    elif kind == "measure":
        lines = [text for text in lines if not text.startswith("measure ")]
        k = draw(st.sampled_from([None, 0, n, n + 1, "007"]))
        if k is not None:
            lines.insert(min(2, len(lines)), f"measure {k}")
    elif kind == "bloch" and preps:
        i = draw(st.sampled_from(preps))
        toks = lines[i].split(" ")
        if len(toks) >= 6:
            spot = draw(st.integers(3, 5))
            toks[spot] = draw(st.sampled_from(
                ["inf", "-inf", "nan", "1e400", "1.0000001", ".5", "1_0.5",
                 f"{toks[spot]}x"]))
            lines[i] = " ".join(toks)
    elif kind == "duplicate-prep" and preps:
        lines.insert(draw(st.integers(max(preps) + 1, len(lines))),
                     lines[draw(st.sampled_from(preps))])
    elif kind == "iqp":
        lines[0] = "family iqp"
    return lines


@st.composite
def whole_prod_files(draw):
    """(text, respellings): a prod file as a program writes it, with a
    measure line, a bloch prep per qubit that is not |0> and repeated gate
    lines, then up to three respellings; "crlf", "cr" and
    "no-final-newline" change the line endings."""
    c = draw(prod_circuits())
    lines = serialize_circuit(c).splitlines()
    gates = [line for line in lines if line.startswith("gate ")]
    lines += draw(st.lists(st.sampled_from(gates), max_size=3)) if gates else []
    count = draw(st.sampled_from([0, 1, 1, 2, 3]))
    kinds = draw(st.lists(st.sampled_from(RESPELLINGS), min_size=count,
                          max_size=count))
    for kind in kinds:
        lines = respell(draw, lines, c.n, kind)
    end = "\r\n" if "crlf" in kinds else "\r" if "cr" in kinds else "\n"
    text = end.join(lines)
    return (text if "no-final-newline" in kinds else text + end), kinds


@settings(max_examples=300, deadline=None)
@given(whole_prod_files())
def test_whole_prod_files_parse_as_the_per_line_parser(case):
    """The whole-text pass takes every file as a program writes it, and
    gives what the per-line parser gives; it takes no file that parser
    refuses, so the error names the same fault and line."""
    text, kinds = case
    fast = _parse_canonical(text)
    try:
        want = _parse_each_line(text, None)
    except CircuitSyntaxError as exc:
        assert fast is None
        with pytest.raises(CircuitSyntaxError) as got:
            parse_circuit(text)
        assert str(got.value) == str(exc)
        return
    assert parse_circuit(text) == want
    if not kinds:
        assert fast is not None
    if fast is not None:
        assert fast == want
        assert all(type(g) is GateApp for g in fast.gates)
        # equal gate lines share one gate, as they do in the per-line parser
        assert len(set(map(id, fast.gates))) == len(set(want.gates))


@pytest.mark.parametrize("spy", ["_parse_program", "_parse_gate"])
def test_canonical_files_take_the_whole_text_pass(monkeypatch, spy):
    """A prod file in the layout the benchmark's workloads write (repr
    floats, a bloch prep per qubit) never reaches the per-line parser."""
    def refuse(*args):
        raise AssertionError(f"{spy} reached")
    bloch = ((0.0, 1.0, 0.0), (-0.5773502691896258, 0.5773502691896258,
                               0.5773502691896257), (1e-05, 0.0, -0.75))
    text = ("family prod\nqubits 3\nmeasure 2\n"
            + "".join(f"prep {q} bloch {x!r} {y!r} {z!r}\n"
                      for q, (x, y, z) in enumerate(bloch))
            + "gate H 0\ngate CNOT 0 2\ngate S 1\ngate CZ 2 1\ngate X 2\n"
              "gate Z 0\ngate CNOT 0 2\n")
    monkeypatch.setattr(f"bornbox.circuits.{spy}", refuse)
    c = parse_circuit(text)
    assert c == ProdCircuit(3, 2, ProductState(bloch), tuple(
        GateApp(name, qs) for name, qs in [
            ("H", (0,)), ("CNOT", (0, 2)), ("S", (1,)), ("CZ", (2, 1)),
            ("X", (2,)), ("Z", (0,)), ("CNOT", (0, 2))]))
    assert c.gates[1] is c.gates[6]


def test_parsed_gates_are_checked_gate_tuples():
    (gate,) = parse_circuit("family prod\nqubits 3\ngate CNOT 2 0\n").gates
    built = GateApp("CNOT", (2, 0))
    assert gate == built
    assert hash(gate) == hash(built)
    assert gate == ("CNOT", (2, 0))
    for field in ("name", "qubits", "other"):
        with pytest.raises(AttributeError):
            setattr(gate, field, None)


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
    assert EncodedCircuit(ghz_circuit(2)).family == "encoded"


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
    prod_circuits().map(EncodedCircuit),
    iqp_circuits().map(EncodedCircuit),
    iqp_circuits().map(lambda c: EncodedCircuit(EncodedCircuit(c))),
)


@settings(max_examples=120, deadline=None)
@given(circuits)
def test_serialize_parse_roundtrip(c):
    assert parse_circuit(serialize_circuit(c)) == c
