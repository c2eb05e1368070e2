"""``cli._json`` writes what ``json.dumps(body, indent=2, sort_keys=True)``
writes, byte for byte, and refuses what that call would write in another
form (floats) or not at all (sets, non-``str`` keys)."""

import json

import pytest

from schedmech import cli
from schedmech.cli import TARGETS, _json, main


def dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


# One argv per target whose output is a JSON payload.
ARGVS = {
    ("allocate",): ["allocate", "lpt-star", "{inst}"],
    ("check", "le"): ["check", "le", "--bids", "1,2", "--workloads", "3,0"],
    ("check", "ef"): ["check", "ef", "--bids", "1,2", "--workloads", "3,0", "--payments", "1,0"],
    ("check", "ir"): ["check", "ir", "lpt-star:efchain", "{inst}"],
    ("check", "truthful"): ["check", "truthful", "vcg", "--random", "3"],
    ("check", "monotone"): ["check", "monotone", "two-opt", "{inst}"],
    ("check", "anonymous"): ["check", "anonymous", "vcg", "{inst}"],
    ("check", "scalable"): ["check", "scalable", "two-opt", "{inst}"],
    ("check", "ratio"): ["check", "ratio", "lpt-star", "--random", "2"],
    ("certify", "theorem5"): ["certify", "theorem5", "--a", "8"],
    ("certify", "theorem7"): ["certify", "theorem7"],
    ("certify", "theorem1"): ["certify", "theorem1", "--m", "2"],
    ("certify", "lemma6"): ["certify", "lemma6"],
    ("certify", "prop12"): ["certify", "prop12", "--samples", "20"],
    ("certify", "polytope"): ["certify", "polytope"],
}


def test_every_target_has_a_payload_argv():
    assert set(ARGVS) == {path for path, (_, reads) in TARGETS.items() if "func" in reads}


@pytest.mark.parametrize("path", sorted(ARGVS))
def test_each_targets_payload_is_written_as_json_dumps_writes_it(path, tmp_path, capsys, monkeypatch):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"jobs": ["2", "1"], "bids": ["3/2", "1"]}))
    bodies = []

    def recording(value, *indent):
        if not indent:
            bodies.append(value)
        return _json(value, *indent)

    monkeypatch.setattr(cli, "_json", recording)
    argv = [token.format(inst=inst) for token in ARGVS[path]]
    assert main(argv) in (0, 1)
    out = capsys.readouterr().out
    assert len(bodies) == 1
    assert out == dumps(bodies[0]) + "\n"


@pytest.mark.parametrize("value", [
    {}, [], (), "", {"a": []}, {"a": {}}, [[], {}, [[]], [{}]], {"": {"": [()]}},
    "ascii", "naïve Ωmega 😀", "tab\tnewline\nquote\"back\\slash\x00\x1f\x7f",
    {"é": 1, "e": 2, "Z": 3, "\x01": 4}, True, False, None, 0, -1, -10 ** 40, 10 ** 40,
    [True, False, None, -3, "x"], {"b": [1, {"c": None}], "a": (2, 3)},
])
def test_values_are_written_as_json_dumps_writes_them(value):
    assert _json(value) == dumps(value)


@pytest.mark.parametrize("value", [1.5, 0.0, [1, 2.0], {"a": float("nan")}, {1, 2}, frozenset(),
                                   {1: "a"}, {"a": {None: 1}}, {("a",): 1}, b"bytes", object()])
def test_what_json_dumps_would_write_otherwise_or_not_at_all_raises_type_error(value):
    with pytest.raises(TypeError):
        _json(value)
