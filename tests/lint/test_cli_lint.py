"""The ``repro-snip lint`` command: exit codes, formats, rule selection."""

from __future__ import annotations

import io
import json
import textwrap

from repro.cli import main

DIRTY = """
import time

def stamp():
    return time.time()
"""

CLEAN = "x = 1\n"


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return str(path)


def test_clean_tree_exits_zero(tmp_path):
    target = _write(tmp_path, "clean.py", CLEAN)
    out = io.StringIO()
    assert main(["lint", target], out=out) == 0
    assert "0 findings" in out.getvalue()


def test_findings_exit_nonzero(tmp_path):
    target = _write(tmp_path, "dirty.py", DIRTY)
    out = io.StringIO()
    assert main(["lint", target], out=out) == 1
    assert "det-wallclock" in out.getvalue()


def test_json_format_is_machine_readable(tmp_path):
    target = _write(tmp_path, "dirty.py", DIRTY)
    out = io.StringIO()
    assert main(["lint", target, "--format", "json"], out=out) == 1
    document = json.loads(out.getvalue())
    assert document["findings"][0]["rule"] == "det-wallclock"


def test_rules_flag_narrows_the_pack(tmp_path):
    target = _write(tmp_path, "dirty.py", DIRTY)
    out = io.StringIO()
    assert main(["lint", target, "--rules", "det-set-iter"], out=out) == 0


def test_unknown_rule_id_exits_two(tmp_path):
    target = _write(tmp_path, "clean.py", CLEAN)
    assert main(
        ["lint", target, "--rules", "no-such-rule"], out=io.StringIO()
    ) == 2


def test_missing_path_exits_two(tmp_path):
    assert main(
        ["lint", str(tmp_path / "missing")], out=io.StringIO()
    ) == 2


def test_list_rules_names_every_pack(tmp_path):
    out = io.StringIO()
    assert main(["lint", "--list-rules"], out=out) == 0
    listing = out.getvalue()
    for rule_id in ("det-wallclock", "det-unseeded-random", "det-env-read",
                    "det-set-iter", "pck-payload", "unt-mixed-units",
                    "con-game-registry", "con-scheme-contract"):
        assert rule_id in listing
