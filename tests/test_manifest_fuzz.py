"""A manifest fuzzer, run in process through ``cli.main``.

Each example takes ``curved.json`` and breaks it one way: a value of the
wrong type at some key, a missing key, an unknown key, a fault-injection
index of the wrong length or an unknown block, a non-finite number, an
expression nested at or past ``MAX_NESTING``, a JSON document nested past
what its parser takes, dimensions whose blocks do not match, or dimensions
past the exact-inverse limit.  Every run must exit with a code of the
README's table and print no traceback, and a run that stops on a
configuration, numeric or internal error must name the cause on stderr.  A
broken value the manifest schema rules out must give exit 2.

The wrong-type, missing-key, unknown-key and non-finite mutations are drawn
from ``cli.SCHEMA``: every key of the table and every slot inside its
values, with the wrong values of its kind from ``WRONG``.  A key added to
the table is fuzzed with no list here to update.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from polyjet import cli
from polyjet.charts import JetChart
from polyjet.linalg import SYM_INVERSE_MAX_DIM
from polyjet.symbolic import MAX_NESTING

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"
BASE = json.loads((MANIFESTS / "curved.json").read_text())
FAULT = {"block": "N2", "index": [1, 2, 1], "delta": 0.1}
COMMANDS = ("christoffel", "regularity", "connection", "verify")
# the exit codes of the README's table
DOCUMENTED = set(range(9))

_NUMBER = [None, True, "1e-8", [], {}]
_OBJECT = [None, True, 3, "x", []]
_ARRAY = [None, True, 3, "x", {}]

# values of the wrong type for each kind of value that ``cli._walk`` reads
WRONG = {
    "object": _OBJECT,
    "integer": [None, True, "2", 2.5, 2.0, [], {}],
    "finite": _NUMBER,
    "tolerance": _NUMBER,
    "choice": [None, True, 0, 1, 1.0, 2, "1", "N3", "n1", [], {}],
    "index": [None, True, "1", 1, {}, [1, 2], [1, 2, 1, 1], [1, True, 1], [1, 2.0, 1],
              [0, 1, 1]],
    "expression": [None, True, [], {}],
    "list": _ARRAY,
    "rows": _ARRAY,
    "pair": _ARRAY,
    "map": _OBJECT,
    "point": _OBJECT,
    "intervals": _OBJECT,
}

# the slots inside a value of each kind that holds others, as the steps
# into it that ``curved.json`` admits, and the kind of the value there
NAMES = JetChart(BASE["dimensions"]["m"], BASE["dimensions"]["n"]).names
INNER = {
    "rows": ([0, 1], "list"),
    "list": ([0, 1], "expression"),
    "pair": ([0, 1], "finite"),
    "map": (["mass", "light_speed"], "finite"),
    "point": (NAMES, "finite"),
    "intervals": (NAMES, "pair"),
}
# kinds whose keys are the chart's names
CHART_KEYED = ("point", "intervals")
NUMERIC = ("finite", "tolerance", "expression")


def slots(path, kind, admitted=(), required=False):
    """(path, kind, the values of ``WRONG[kind]`` that it admits, whether
    the manifest needs it) of the value at ``path`` and of every slot inside
    it.  An entry of an array is needed, since the array's length is fixed."""
    yield path, kind, admitted, required
    steps, inner = INNER.get(kind, ((), None))
    for step in steps:
        yield from slots(path + (step,), inner, required=isinstance(step, int))


def schema_slots() -> list:
    """The slots of every key of the schema table."""
    found = []
    for obj, keys in cli.SCHEMA.items():
        parent = tuple(obj.split(".")) if obj else ()
        for key, spec in keys.items():
            admitted = spec.arg if spec.kind == "choice" else ()
            found += slots(parent + (key,), spec.kind, admitted, spec.default is cli.REQUIRED)
    return found


def wrong(slot) -> list:
    """The values of the slot's kind that it must refuse."""
    return [value for value in WRONG[slot[1]]
            if not any(value == ok and type(value) is type(ok) for ok in slot[2])]


SLOTS = schema_slots()


def dotted(path) -> str:
    return ".".join(step for step in path if isinstance(step, str))


def last_key(path) -> str:
    return [step for step in path if isinstance(step, str)][-1]


def misspelt(key: str, keys) -> list:
    """Spellings of ``key`` one slip away that are not keys of its object."""
    slips = {key + key[-1], key[:-1], key[1::-1] + key[2:]}
    return sorted(slip for slip in slips if slip and slip not in keys)


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


def present(data, path) -> bool:
    try:
        drop(copy.deepcopy(data), path)
    except (KeyError, IndexError):
        return False
    return True


# A case is (manifest text, texts one of which the error must name, and
# whether the manifest must be refused with exit 2).  An error about a slot
# names its dotted path or its last key, quoted.

wrong_types = st.sampled_from(SLOTS).flatmap(lambda slot: st.sampled_from(wrong(slot)).map(
    lambda value: (json.dumps(put(base(), slot[0], value)),
                   (dotted(slot[0]), repr(last_key(slot[0]))), True)))

# each slot that the base manifest fills, dropped: refused when it is needed
missing = st.sampled_from([slot for slot in SLOTS if present(base(), slot[0])]).map(
    lambda slot: (json.dumps(drop(base(), slot[0])), (dotted(slot[0]), last_key(slot[0])),
                  slot[3]))

non_finite = st.tuples(st.sampled_from([slot for slot in SLOTS if slot[1] in NUMERIC]),
                       st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400"])).map(
    lambda case: (json.dumps(put(base(), case[0][0], "@")).replace('"@"', case[1]),
                  (dotted(case[0][0]), repr(last_key(case[0][0]))), True))


@st.composite
def unknown_keys(draw):
    """A key of an object renamed by one slip, or a name that is no chart
    name added to a map keyed by them."""
    data = base()
    if draw(st.booleans()):
        obj = draw(st.sampled_from(sorted(cli.SCHEMA)))
        key = draw(st.sampled_from(sorted(cli.SCHEMA[obj])))
        slip = draw(st.sampled_from(misspelt(key, cli.SCHEMA[obj])))
        parent = tuple(obj.split(".")) if obj else ()
        node = data
        for step in parent:
            node = node[step]
        node[slip] = node.pop(key, 0)
        return json.dumps(data), (dotted(parent + (slip,)), dotted(parent + (key,))), True
    path = draw(st.sampled_from([slot[0] for slot in SLOTS if slot[1] in CHART_KEYED]))
    return json.dumps(put(data, path + ("q1",), 0.5)), ("'q1'",), True


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

cases = st.one_of(wrong_types, missing, non_finite, unknown_keys(), expression_nesting(),
                  json_nesting(), mismatched_dimensions(), large_dimensions(), fault_shapes,
                  not_json)


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


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_refuses_the_manifest_without_its_temporal_metric(command):
    """The schema lets a manifest leave out ``temporal_metric``, but every
    command needs it; each refuses ``curved.json`` without it, naming it."""
    code, out, err = run(command, json.dumps(drop(base(), ("temporal_metric",))))
    assert code == cli.EXIT_CONFIG and "temporal_metric" in err, (code, out, err)


def test_every_slot_refuses_every_wrong_value_of_its_kind():
    """The wrong-type cases drawn above, every one of them, on one command:
    the schema refuses them while the manifest loads."""
    for slot in SLOTS:
        path = slot[0]
        for value in wrong(slot):
            code, out, err = run("christoffel", json.dumps(put(base(), path, value)))
            assert code == cli.EXIT_CONFIG, (path, value, out, err)
            assert dotted(path) in err or repr(last_key(path)) in err, (path, value, err)


def test_the_base_manifest_passes_but_for_its_injected_fault():
    text = json.dumps(base())
    assert [run(command, text)[0] for command in COMMANDS] == [0, 0, 0, cli.EXIT_CONNECTION]
