"""The CLI's stdout bytes, pinned as sha256 digests of in-process `main` runs.

A change that moves any printed digit fails here; one that moves them on
purpose updates the table and lists the commands in CHANGES.md. Only CSV is
pinned: JSON prints full `repr` floats, which can move by an ulp between the
numpy versions CI installs, and `test_cli.py::test_json_rows_have_the_csv_columns`
already covers the JSON columns.
"""

import hashlib
import json

import pytest

from secondorder.cli import main

MEMBERS_TEXT = "# three members\n0.1 0.2 0.7\n\n0.3 0.3 0.4  # flat\n0.6 0.2 0.2\n"
MEMBERS_JSON = json.dumps({"kind": "ensemble", "members": [[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]]})
MIXTURE = {
    "kind": "mixture",
    "weights": [0.25, 0.75],
    "components": [
        {"kind": "dirichlet", "alpha": [2, 5]},
        {"kind": "interval_uniform", "lo": 0.1, "hi": 0.4},
    ],
}

DIGESTS = {
    "panel": (
        ["panel"],
        "9d0bb98fe88002f4a06213f792f0e823b9b146fa512d717559e996b1667591ce",
    ),
    "panel-nats-raw": (
        ["panel", "--unit", "nats", "--raw"],
        "307078402c7537253ff1038fb6596173b44acef574e0437b205f3be64c0c34e6",
    ),
    "eval-point": (
        ["eval", '{"kind":"point","theta":[0.2,0.3,0.5]}'],
        "7d4ad6be3c8d0f86e3ab84d3404cc786f334dee83a7910b32795923e374213d2",
    ),
    "eval-dirichlet": (
        ["eval", '{"kind":"dirichlet","alpha":[1,3,6]}'],
        "59d883ab53efd7332d2fcf5ab55a7bb99e88974b53dcd43bcf9222a01e8f4bcf",
    ),
    "eval-interval": (
        ["eval", '{"kind":"interval_uniform","lo":0.3,"hi":0.7}'],
        "95947485ca387dd59d1fdfb3b711ca34b00f3b8c39e605a23c752e4c524be0d2",
    ),
    "eval-mixture": (
        ["eval", json.dumps(MIXTURE)],
        "aec7dcf8d94bd0d88189c56a30977efc201d773222598f7455a1d584e5a57116",
    ),
    "eval-ensemble": (
        ["eval", '{"kind":"ensemble","members":[[0.1,0.9],[0.4,0.6]]}'],
        "1ecec259d4e22f7e1e7b8cf28c878039480b68681c3c0ae16d78ab3033ec3ee2",
    ),
    "ensemble-text": (
        ["ensemble", "@TEXT"],
        "8a67cdd9ffc62d84d24ab267e1d39394763c01c186a650b67f6bfe6502b97609",
    ),
    "ensemble-json": (
        ["ensemble", "@JSON"],
        "c8fbf6c7e73d91ca1e21c5f57bf72a4bec594879a04f60001ab623a811c2cdb8",
    ),
    "ensemble-text-nats-raw": (
        ["ensemble", "@TEXT", "--unit", "nats", "--raw"],
        "413d694e20be44b6159b7bb2b66dbfb9cbfdef59ee524c162f48bfe16fa29efd",
    ),
    "curve": (
        ["curve", "--replications", "20"],
        "b9ebe8116d7dcc03c2e91698d8e22a6ee1bff9d74300f09f9e8651cdebbd6b5b",
    ),
    "curve-seed-3": (
        ["curve", "--replications", "20", "--seed", "3"],
        "c189a77b4f0bd415e43356b023f145d358e461e3073b3a37d7c3ac20250df633",
    ),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_stdout_digest(capsys, tmp_path, name):
    argv, digest = DIGESTS[name]
    (tmp_path / "members.txt").write_text(MEMBERS_TEXT)
    (tmp_path / "members.json").write_text(MEMBERS_JSON)
    files = {"@TEXT": str(tmp_path / "members.txt"), "@JSON": str(tmp_path / "members.json")}
    code = main([files.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest, captured.out
