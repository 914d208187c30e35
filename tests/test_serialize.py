"""`serialize.dumps` writes json's indented, key-sorted bytes without json's encoder."""

import contextlib
import io
import json
import json.encoder
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sasakit import cli
from sasakit.cli import main
from sasakit.families import FAMILY_BUILDERS
from sasakit.serialize import dumps

GOLDEN = Path(__file__).with_name("golden")


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class ReprInt(int):
    """An int subclass whose repr is not its JSON text."""

    def __repr__(self):
        return f"ReprInt({int(self)})"


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers().map(ReprInt)
    | st.floats()  # NaN and +-inf included
    | st.floats(allow_nan=False).map(np.float64)
    | st.sampled_from([0.0, -0.0, 1e300, 5e-324])
    | st.text()  # non-ASCII, control characters and lone surrogates included
)
INT_LISTS = st.lists(st.integers() | st.booleans() | st.integers().map(ReprInt))
KEYS = st.text() | st.sampled_from(["", "normals", "é", "\U0001f600", '"', "\\"])
JSON_TREES = st.recursive(
    SCALARS | INT_LISTS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(JSON_TREES)
@example({"a": [1, True, 2], "b": [], "c": {}, "d": (), "e": [[]]})
@example([float("nan"), float("inf"), -float("inf"), -0.0, np.float64(0.1)])
@example({"ü": "日本 \x00\n", "": None})
def test_dumps_matches_json(obj):
    assert dumps(obj) == reference(obj)


@pytest.mark.parametrize(
    "obj",
    [{1, 2}, b"x", object(), np.int64(3), [np.bool_(True)], {(1, 2): 3}, {1: 2, "a": 3}],
    ids=["set", "bytes", "object", "np-int", "np-bool", "tuple-key", "mixed-keys"],
)
def test_dumps_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError):
        reference(obj)
    with pytest.raises(TypeError):
        dumps(obj)


@pytest.mark.parametrize("obj", [{1: "a"}, {"a": {2.5: None}}, [{None: 1}], {True: 1}])
def test_dumps_writes_string_keys_only(obj):
    # json would write these keys as strings; no output of the program has them
    with pytest.raises(TypeError, match="must be a string"):
        dumps(obj)


def _stdout(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _subcommand_outputs(tmp_path) -> list:
    """Check the golden bytes of check and analyze; return the (exit, stdout)
    of geodesic-test and of family, which have no golden files."""
    outputs = []
    for name in ("lens2", "main4-even-8-3-sheared", "non-cy2", "not-good"):
        golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"rank": 3, "normals": golden["normals"]}))
        for command, flags in (("check", []), ("analyze", ["--cy", "--topo", "--reeb"])):
            code, out = _stdout([command, str(path), *flags])
            assert (code, out) == (golden[command]["exit"], golden[command]["stdout"]), name
        if name in ("lens2", "main4-even-8-3-sheared"):
            outputs.append(_stdout(["geodesic-test", str(path)]))
    values = {"l": "3", "r": "2", "s": "1"}
    for family, (_, options) in sorted(FAMILY_BUILDERS.items()):
        flags = [arg for name in options for arg in (f"--{name}", values[name])]
        outputs.append(_stdout(["family", family, *flags]))
    outputs.append(_stdout(["family", "lens"]))  # an error JSON
    return outputs


def test_cli_never_runs_the_pure_python_encoder(tmp_path, monkeypatch):
    # json's pure-Python encoder, the one json.dumps uses with an indent,
    # raises while every subcommand prints its golden bytes, or for
    # geodesic-test and family the bytes json.dumps prints
    monkeypatch.setattr(cli, "dumps", reference)
    expected = _subcommand_outputs(tmp_path)
    assert [code for code, _ in expected] == [0, 0] + [0] * len(FAMILY_BUILDERS) + [1]

    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    monkeypatch.setattr(cli, "dumps", dumps)
    with pytest.raises(AssertionError, match="pure-Python encoder"):
        json.dumps({}, indent=2)
    assert _subcommand_outputs(tmp_path) == expected


def test_diagram_from_dict_entry_check():
    # JSON's plain ints pass in one pass; any other entry takes the per-entry
    # check, which still accepts an int subclass and names the first bad entry
    from sasakit.errors import DiagramError
    from sasakit.serialize import diagram_from_dict

    plain, _ = diagram_from_dict({"normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    sub, _ = diagram_from_dict({"normals": [[ReprInt(1), 0, 0], [0, 1, 0], [0, 0, 1]]})
    assert sub.normals == plain.normals
    for entry in (1.0, True, "1", None):
        with pytest.raises(DiagramError, match=f"exact integers, got {entry!r}$"):
            diagram_from_dict({"normals": [[1, 0, 0], [0, 1, 0], [0, 0, entry], [2.5, 0, 1]]})
