"""Every frozen CLI row of the benchmark, replayed in-process through cli.main.

The rows live in perfbench/refs/cli.json. They are read with the
benchmark's own loader and checked with its own field list and
comparison, so this test and the benchmark's cli workload agree on what a
correct answer is. Nothing under perfbench/ is written.
"""

import json
import os
import sys

import pytest

from periodlab.cli import main

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import refs  # noqa: E402
import run as bench  # noqa: E402

DATA = refs.load("cli")
ROWS = [(f"{slot}-{i}", row) for slot in sorted(DATA["slots"])
        for i, row in enumerate(DATA["slots"][slot])]


def test_every_row_is_replayed():
    assert len(ROWS) == 73


@pytest.mark.parametrize("row", [row for _, row in ROWS], ids=[name for name, _ in ROWS])
def test_frozen_row(capsys, monkeypatch, tmp_path, row):
    monkeypatch.delenv("PERIODLAB_TOL", raising=False)
    argv = []
    for arg in row["argv"]:
        if isinstance(arg, dict):  # a hodge-check point, written as a file
            point = tmp_path / "point.json"
            point.write_text(json.dumps({"tau": [arg["tau"].real, arg["tau"].imag]}))
            arg = str(point)
        argv.append(arg)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == row["exit"], err
    if code:
        assert json.loads(err.strip().splitlines()[-1])["error"] == row["output"]["error"]
        return
    doc = json.loads(out)
    for name in bench.CLI_FIELDS[argv[0]]:
        assert bench.json_close(bench.dig(doc, name), bench.dig(row["output"], name),
                                DATA["rtol"]), name
