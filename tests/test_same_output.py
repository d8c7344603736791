import argparse
import contextlib
import copy
import importlib.util
import io
import json
from pathlib import Path

import pytest

from permwreath import cli
from permwreath.blocks_pins import PIN_CAP

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_output.py"
_spec = importlib.util.spec_from_file_location("same_output", TOOL)
same_output = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_output)


@pytest.fixture(scope="module")
def self_run():
    """The tool run on this tree against itself: exit code, stdout and
    the digest records of both sides."""
    seen = []
    real_digests = same_output.digests

    def spy_digests(tree):
        records = real_digests(tree)
        seen.append(records)
        return records

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(same_output, "digests", spy_digests)
        code = same_output.main([str(ROOT), str(ROOT)])
    return code, out.getvalue(), seen


def leaf_commands(parser, names=()):
    """The name path of every command of ``parser`` that has no subcommands."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from leaf_commands(sub, (*names, name))
            return
    yield names


def test_the_tree_against_itself_is_identical(self_run):
    code, out, (parent, change) = self_run
    assert code == 0
    assert out == f"identical: {len(parent)} invocations\n"
    assert parent == change
    assert len(parent) > 400
    # Every leaf command runs, by group and name, and some in --json mode.
    leaves = set(leaf_commands(cli._build_parser()))
    groups = {leaf[0] for leaf in leaves if len(leaf) > 1}
    lines = [argv[1:] if argv[0] == "--json" else argv for argv, *_ in parent]
    assert {tuple(argv[: 1 + (argv[0] in groups)]) for argv in lines} == leaves
    assert len(leaves) == 22
    assert any(argv[0] == "--json" for argv, *_ in parent)
    # The probe runs at its deepest cap as well as at 20.
    caps = {argv[-1] for argv, *_ in parent if argv[0] == "pin-probe"}
    assert caps == {"20", str(PIN_CAP)}
    # Every basis run wrote its store; no other command has one.
    empty = same_output._digest(b"")
    for argv, _, _, store in parent:
        assert (store != empty) == ("basis" in argv), argv


def test_an_altered_digest_is_reported(self_run, monkeypatch, capsys):
    _, _, (parent, _) = self_run
    altered = copy.deepcopy(parent)
    altered[3][3] = "0" * 64  # the store of the fourth basis scan
    canned = {"parent": parent, "change": altered}
    monkeypatch.setattr(same_output, "digests", canned.__getitem__)
    assert same_output.main(["parent", "change"]) == 1
    assert capsys.readouterr().out == f"differs: {json.dumps(parent[3][0])}\n"
