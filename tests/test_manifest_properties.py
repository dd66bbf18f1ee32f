"""Property test of a run's manifest as config input: whatever one edit does
to a trained run's config, `eval` and `audit` exit with the documented code
and one error message, before any output directory exists."""

import io
import json
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridres.cli import main
from gridres.config import FLEET
from gridres.harness import read_manifest, train_run
from test_harness import tiny_cfg

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True,
                    database=None)


def _places(config):
    """Key paths into a config: its mappings (the root is ``()``), the keys
    of those mappings, the fleet lists, their entries and every leaf (an
    entry's fields included)."""
    places = {"mappings": [()], "keys": [], "fleets": [], "entries": [], "leaves": []}

    def walk(node, path):
        for key, value in node.items():
            places["keys"].append(path + (key,))
            if isinstance(value, dict):
                places["mappings"].append(path + (key,))
                walk(value, path + (key,))
            elif path == ("microgrid",) and key in FLEET:
                places["fleets"].append(path + (key,))
                for i, entry in enumerate(value):
                    places["entries"].append(path + (key, i))
                    places["leaves"] += [path + (key, i, field) for field in entry]
            else:
                places["leaves"].append(path + (key,))

    walk(config, ())
    return places


PLACES = _places(tiny_cfg())
# (edit, place, exit code): an unknown key, a mistyped value or a fleet entry
# that is no mapping is a config error (1); a lacking key makes the manifest
# malformed (2). No key leaves a fleet entry: some fields have defaults.
EDITS = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(PLACES["mappings"])
              | st.sampled_from(PLACES["entries"]), st.just(1)),
    st.tuples(st.just("mapping"), st.sampled_from(PLACES["leaves"] + PLACES["fleets"]),
              st.just(1)),
    st.tuples(st.just("int"), st.sampled_from(PLACES["entries"]), st.just(1)),
    st.tuples(st.just("delete"), st.sampled_from(PLACES["keys"]), st.just(2)),
)


def _at(config, path):
    for key in path:
        config = config[key]
    return config


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    run = tmp_path_factory.mktemp("manifest") / "run"
    train_run(tiny_cfg(), 5, run)
    return run


@PROPERTY
@given(edit=EDITS, command=st.sampled_from(["eval", "audit"]))
def test_no_edited_manifest_reaches_a_traceback(run, edit, command):
    kind, place, code = edit
    manifest = read_manifest(run)
    config = manifest["config"]
    if kind == "add":
        _at(config, place)["no_such_key"] = 1
    elif kind == "delete":
        del _at(config, place[:-1])[place[-1]]
    else:
        _at(config, place[:-1])[place[-1]] = {"x": 1} if kind == "mapping" else 7
    original = (run / "manifest.json").read_text()
    out = Path(tempfile.mkdtemp(dir=run.parent)) / "out"
    try:
        (run / "manifest.json").write_text(json.dumps(manifest))
        err = io.StringIO()
        with redirect_stderr(err):
            status = main([command, "--checkpoint", str(run), "--out", str(out)])
    finally:
        (run / "manifest.json").write_text(original)
    assert status == code, err.getvalue()
    assert err.getvalue().startswith("error: ")
    assert "Traceback" not in err.getvalue()
    assert str(run) in err.getvalue()
    assert not out.exists()
