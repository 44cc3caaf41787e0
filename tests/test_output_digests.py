"""Pinned sha256 digests of every file two shipped CLI runs write.

``data/output_digests.json`` maps each command to the digests of the files
under its output directory, keyed by directory relative to it (``.`` is the
directory itself) and then by file name. A change meant to keep output
byte-identical must leave them alone; a change meant to alter output
updates them in the same commit and says why.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from speclab.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = os.path.join(os.path.dirname(HERE), "workloads")

with open(os.path.join(HERE, "data", "output_digests.json"), encoding="utf-8") as fh:
    PINNED = json.load(fh)


def digests(root: str) -> dict[str, dict[str, str]]:
    """Directory (relative to ``root``) -> file name -> sha256 of its bytes."""
    found = {}
    for directory, _, names in os.walk(root):
        files = {}
        for name in sorted(names):
            with open(os.path.join(directory, name), "rb") as fh:
                files[name] = hashlib.sha256(fh.read()).hexdigest()
        found[os.path.relpath(directory, root).replace(os.sep, "/")] = files
    return found


@pytest.mark.parametrize("command", sorted(PINNED), ids=lambda command: command.split()[0])
def test_cli_output_matches_the_pinned_digests(tmp_path, capsys, command):
    subcommand, config = command.split()
    out = tmp_path / "out"
    assert main([subcommand, os.path.join(WORKLOADS, config), "--out", str(out)]) == 0
    capsys.readouterr()
    found = digests(str(out))
    assert sorted(found) == sorted(PINNED[command])
    for directory, files in PINNED[command].items():
        changed = sorted(
            name for name in files.keys() | found[directory].keys()
            if files.get(name) != found[directory].get(name)
        )
        assert not changed, f"{directory}: {changed} differ from the pinned digests"
