"""A manifest fuzzer, run in process through ``cli.main``.

Each example takes ``curved.json`` and breaks it one way: a value of the
wrong type at some key, a missing key, a fault-injection index of the wrong
length or an unknown block, a non-finite number, an expression nested at or
past ``MAX_NESTING``, a JSON document nested past what its parser takes,
dimensions whose blocks do not match, or dimensions past the exact-inverse
limit.  Every run must exit with a code of the README's table and print no
traceback, and a run that stops on a configuration, numeric or internal
error must name the cause on stderr.  A broken value the manifest schema
rules out must give exit 2.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from polyjet import cli
from polyjet.linalg import SYM_INVERSE_MAX_DIM
from polyjet.symbolic import MAX_NESTING

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"
BASE = json.loads((MANIFESTS / "curved.json").read_text())
FAULT = {"block": "N2", "index": [1, 2, 1], "delta": 0.1}
COMMANDS = ("christoffel", "regularity", "connection", "verify")
# the exit codes of the README's table
DOCUMENTED = set(range(9))

_INTEGER = [None, True, "2", 2.5, 2.0, [], {}]
_NUMBER = [None, True, "1e-8", [], {}]
_OBJECT = [None, True, 3, "x", []]
_OPTIONAL_OBJECT = [True, 3, "x", []]
_ARRAY = [None, True, 3, "x", {}]
_EXPRESSION = [None, True, [], {}]

# (path, values of a wrong type there, text the error must name)
WRONG_TYPES = [
    (("schema",), [None, True, 1.0, "1", 2, [], {}], "schema"),
    (("dimensions",), _OBJECT, "dimensions"),
    (("dimensions", "m"), _INTEGER, "dimensions.m"),
    (("dimensions", "n"), _INTEGER, "dimensions.n"),
    (("temporal_metric",), _ARRAY, "temporal_metric"),
    (("temporal_metric", 1), _ARRAY, "temporal_metric"),
    (("temporal_metric", 1, 1), _EXPRESSION, "temporal_metric"),
    (("spatial_metric",), _ARRAY, "spatial_metric"),
    (("spatial_metric", 0, 0), _EXPRESSION, "spatial_metric"),
    (("hamiltonian",), _EXPRESSION, "hamiltonian"),
    (("constants",), _OBJECT, "constants"),
    (("constants", "mass"), _NUMBER, "constants.mass"),
    (("transition",), _OBJECT, "transition"),
    (("transition", "t_forward"), _ARRAY, "transition.t_forward"),
    (("transition", "x_forward", 1), _EXPRESSION, "transition.x_forward"),
    (("transition", "t_inverse"), _ARRAY, "transition.t_inverse"),
    (("transition", "x_inverse", 0), _EXPRESSION, "transition.x_inverse"),
    (("sample_domain",), _OBJECT, "sample_domain"),
    (("sample_domain", "count"), _INTEGER, "sample_domain.count"),
    (("sample_domain", "seed"), _INTEGER, "sample_domain.seed"),
    (("sample_domain", "intervals"), _OBJECT, "sample_domain.intervals"),
    (("sample_domain", "intervals", "t1"), _ARRAY, "'t1'"),
    (("tolerances",), _OBJECT, "tolerances"),
    (("tolerances", "law"), _NUMBER, "'law'"),
    (("tolerances", "regularity"), _NUMBER, "'regularity'"),
    (("evaluation_point",), _OPTIONAL_OBJECT, "evaluation_point"),
    (("evaluation_point", "x1"), _NUMBER, "evaluation_point.x1"),
    (("fault_injection",), _OPTIONAL_OBJECT, "fault_injection"),
    (("fault_injection", "block"), [None, True, 1, "N3", "n1", []], "fault_injection.block"),
    (("fault_injection", "index"),
     [None, True, "1", 1, {}, [1, 2], [1, 2, 1, 1], [1, True, 1], [1, 2.0, 1], [0, 1, 1]],
     "fault_injection.index"),
    (("fault_injection", "delta"), _NUMBER, "fault_injection.delta"),
]

# (path, text the error must name when the run stops on it, whether every
# command refuses the manifest without it)
MISSING = [
    (("schema",), "schema", True),
    (("dimensions",), "dimensions", True),
    (("dimensions", "n"), "dimensions.n", True),
    (("temporal_metric",), "temporal_metric", True),
    (("spatial_metric",), "spatial_metric", False),
    (("hamiltonian",), "hamiltonian", False),
    (("transition",), "transition", False),
    (("transition", "x_forward"), "x_forward", True),
    (("transition", "t_inverse"), "t_inverse", False),
    (("evaluation_point", "t2"), "evaluation_point", False),
    (("fault_injection", "block"), "fault_injection.block", True),
    (("fault_injection", "index"), "fault_injection.index", True),
]

# (path, text the error must name) of numbers that must be finite
NUMBERS = [
    (("tolerances", "equiv"), "'equiv'"),
    (("constants", "light_speed"), "constants.light_speed"),
    (("evaluation_point", "p2_2"), "evaluation_point.p2_2"),
    (("sample_domain", "intervals", "x2", 1), "'x2'"),
    (("fault_injection", "delta"), "fault_injection.delta"),
    (("temporal_metric", 0, 0), "temporal_metric"),
    (("hamiltonian",), "hamiltonian"),
]


def base() -> dict:
    return {**copy.deepcopy(BASE), "fault_injection": dict(FAULT)}


def put(data: dict, path, value) -> dict:
    """``data`` with ``value`` at ``path``, missing objects on the way made."""
    node = data
    for key, inner in zip(path, path[1:]):
        if isinstance(node, dict) and not isinstance(node.get(key), (dict, list)):
            node[key] = {} if isinstance(inner, str) else [0.0, 0.0]
        node = node[key]
    node[path[-1]] = value
    return data


def drop(data: dict, path) -> dict:
    node = data
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return data


def nested(opening: str, depth: int, inner: str) -> str:
    return opening * depth + inner + ")" * depth


def wide(m: int, n: int) -> dict:
    """A manifest with identity metrics and transition at (m, n)."""
    ts, xs = [f"t{a + 1}" for a in range(m)], [f"x{i + 1}" for i in range(n)]
    return {"schema": 1, "dimensions": {"m": m, "n": n},
            "temporal_metric": [["1" if a == b else "0" for b in range(m)] for a in range(m)],
            "spatial_metric": [["1" if i == j else "0" for j in range(n)] for i in range(n)],
            "hamiltonian": " + ".join(f"p{i + 1}_{a + 1}^2" for i in range(n) for a in range(m)),
            "transition": {"t_forward": ts, "t_inverse": ts, "x_forward": xs, "x_inverse": xs},
            "sample_domain": {"count": 3, "seed": 0}}


# A case is (manifest text, texts one of which the error must name, and
# whether the manifest must be refused with exit 2).

wrong_types = st.sampled_from(WRONG_TYPES).flatmap(lambda case: st.builds(
    lambda value: (json.dumps(put(base(), case[0], value)), (case[2],), True),
    st.sampled_from(case[1])))

missing = st.sampled_from(MISSING).map(
    lambda case: (json.dumps(drop(base(), case[0])), (case[1],), case[2]))

non_finite = st.tuples(st.sampled_from(NUMBERS), st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400"])).map(
    lambda case: (json.dumps(put(base(), case[0][0], "@")).replace('"@"', case[1]),
                  (case[0][1],), True))


@st.composite
def expression_nesting(draw):
    depth = draw(st.sampled_from([MAX_NESTING, MAX_NESTING + 1, 200]))
    text = nested(draw(st.sampled_from(["(", "sin("])), depth, "x2")
    data = base()
    if draw(st.booleans()):
        put(data, ("hamiltonian",), f"{data['hamiltonian']} + {text}")
    else:
        put(data, ("spatial_metric", 1, 1), f"2 + {text}")
    return json.dumps(data), ("nests deeper than",), depth > MAX_NESTING


@st.composite
def json_nesting(draw):
    depth = draw(st.sampled_from([3, MAX_NESTING + 1, 100_000]))
    path, cause = draw(st.sampled_from([(("constants", "mass"), "constants.mass"),
                                        (("temporal_metric", 0, 1), "temporal_metric"),
                                        (("fault_injection", "index"), "fault_injection.index")]))
    text = json.dumps(put(base(), path, "@")).replace('"@"', "[" * depth + "]" * depth)
    return text, (cause, "nests deeper than the JSON parser allows"), True


@st.composite
def mismatched_dimensions(draw):
    m, n = draw(st.sampled_from([(1, 2), (3, 2), (2, 1), (2, 3), (3, 3), (9, 2)]))
    data = put(base(), ("dimensions",), {"m": m, "n": n})
    return json.dumps(data), ("temporal_metric", "spatial_metric"), True


@st.composite
def large_dimensions(draw):
    m, n = draw(st.sampled_from([(1, SYM_INVERSE_MAX_DIM + 1), (SYM_INVERSE_MAX_DIM + 1, 1),
                                 (1, SYM_INVERSE_MAX_DIM + 3)]))
    return json.dumps(wide(m, n)), (f"exceeds the limit {SYM_INVERSE_MAX_DIM}",), False


fault_shapes = st.sampled_from([
    ({"block": "N2", "index": [1, 2]}, "fault_injection.index"),
    ({"block": "N1", "index": [1, 2, 1, 1]}, "fault_injection.index"),
    ({"block": "N1", "index": [3, 1, 1]}, "fault_injection.index"),
    ({"block": "N3", "index": [1, 1, 1]}, "fault_injection.block"),
    ({"block": "G1", "index": [1, 1, 1]}, "fault_injection.block"),
]).map(lambda case: (json.dumps(put(base(), ("fault_injection",), case[0])), (case[1],), True))

not_json = st.sampled_from([b"", b"[1, 2]", b'{"schema": 1,', b"\xff\xfe\x00",
                            json.dumps(base()).encode().replace(b"exp", b"\x80xp")]).map(
    lambda blob: (blob, ("manifest",), True))

cases = st.one_of(wrong_types, missing, non_finite, expression_nesting(), json_nesting(),
                  mismatched_dimensions(), large_dimensions(), fault_shapes, not_json)


def run(command: str, text):
    """(exit code, stdout, stderr) of one in-process run on ``text``, a
    string or bytes."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.json"
        path.write_bytes(text.encode() if isinstance(text, str) else text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, str(path)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(cases, st.sampled_from(COMMANDS))
def test_a_broken_manifest_fails_closed_and_names_its_cause(case, command):
    text, causes, refused = case
    code, out, err = run(command, text)
    assert code in DOCUMENTED
    assert "Traceback" not in out + err
    if refused:
        assert code == cli.EXIT_CONFIG, (code, out, err)
    if code in (cli.EXIT_INTERNAL, cli.EXIT_CONFIG, cli.EXIT_METRIC):
        assert any(cause in err for cause in causes), (causes, err)


def test_the_base_manifest_passes_but_for_its_injected_fault():
    text = json.dumps(base())
    assert [run(command, text)[0] for command in COMMANDS] == [0, 0, 0, cli.EXIT_CONNECTION]
