"""The report writer against its oracle, json.dumps(obj, indent=2, sort_keys=True)."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from champagne import cli
from champagne.geometry import config_report, lower_bound_config
from champagne.jsonout import dumps


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def outcome(encode, obj):
    """The text, or the type of the exception raised instead."""
    try:
        return encode(obj)
    except Exception as exc:  # the type is what is compared
        return type(exc)


# text that looks like the writer's own seams: item boundaries, brackets,
# quotes, escapes, control characters, non-ASCII and a lone surrogate
SEAMS = ['},\n  {', '},\n    {', '"', '\\', '[', ']', '{', '}', ',', ': ',
         '\n', '\r\t\x00\x1f', '\u2028', 'é', '\U0001f600', '\ud800']
texts = st.one_of(
    st.text(max_size=8),
    st.lists(st.sampled_from(SEAMS), max_size=5).map("".join),
)
floats = st.floats(allow_nan=True, allow_infinity=True)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), floats, texts,
    floats.map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1, True, False]),
)
# keys of one dict must sort against each other: all str, or all numbers
keys = st.one_of(
    st.just(texts),
    st.just(st.one_of(st.integers(), st.floats(), st.booleans())),
)


def containers(children):
    dicts = keys.flatmap(lambda k: st.dictionaries(k, children, max_size=5))
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        dicts,
        # pair tables: lists of scalar-only dicts, empty ones included
        st.lists(st.dictionaries(texts, scalars, max_size=4), max_size=5),
    )


trees = st.recursive(scalars, containers, max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(trees)
@example([{"a": 1, "b": "},\n    {"}, {}, {"c": []}, {"d": {}}])
@example([{"x": 1}, [], {"y": [1, (2, 3)]}])
@example({"a": [{"b": [{"c": [{"d": [1, {"e": None}]}]}]}]})
@example({1: [1], 2.5: {"k": True}, False: [], -3: {}})
@example({None: [{"a": math.nan}]})
@example({None: 0, "a": [1]})  # unsortable keys: both raise TypeError
@example([[[[[1, -math.inf]]]], (np.float64(0.1), True, 1, False, 0)])
def test_writer_matches_json_dumps(obj):
    assert outcome(dumps, obj) == outcome(oracle, obj)


@pytest.mark.parametrize(
    "bad", [{1, 2}, np.int64(3), object(), np.bool_(True), np.array([1.0])]
)
def test_unserializable_values_raise_like_json_dumps(bad):
    for obj in (bad, [bad], [1, bad], {"k": bad}, {"k": [bad]}, [{"a": bad}],
                {"k": [[1], bad]}, {"x": {1: [bad]}}):
        expected = outcome(oracle, obj)
        assert isinstance(expected, type) and issubclass(expected, Exception)
        assert outcome(dumps, obj) == expected


def test_bad_keys_raise_like_json_dumps():
    for obj in ({(1, 2): 1}, {"a": 1, 2: 3}, {"a": {(1,): [1]}}, {"a": [1], 2: [3]}):
        expected = outcome(oracle, obj)
        assert expected is TypeError
        assert outcome(dumps, obj) == expected


def test_circular_reference_raises_like_json_dumps():
    loop = [1]
    loop.append({"k": [loop]})
    shared = [[1], 2]  # walked twice, but no cycle
    for obj in (loop, {"a": loop}, [shared, {"b": shared}, [shared]]):
        assert outcome(dumps, obj) == outcome(oracle, obj)
    assert outcome(dumps, loop) is ValueError


def test_pair_table_report_is_unchanged():
    obj = config_report(lower_bound_config(60)).to_json_obj()
    assert len(obj["pairs"]) == 118 * 117 // 2
    assert dumps(obj) == oracle(obj)


@pytest.mark.parametrize(
    "argv",
    [
        ["check-lines", cli.bundled_path("three_lines.json")],
        ["check-lines", cli.bundled_path("three_lines.json"), "--distances-only"],
        ["gen-lower-bound", "--dim", "60"],
    ],
    ids=["check-lines-full", "check-lines-distances-only", "gen-lower-bound-60"],
)
def test_cli_report_bytes_match_json_dumps(monkeypatch, capsys, argv):
    emitted = []
    monkeypatch.setattr(cli, "dumps", lambda obj: emitted.append(obj) or dumps(obj))
    assert cli.main(argv) == 0
    assert len(emitted) == 1
    assert capsys.readouterr().out == oracle(emitted[0]) + "\n"
