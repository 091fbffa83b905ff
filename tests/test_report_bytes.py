"""Golden bytes: sha256 of the standard output, and the exit status, of
the report commands.

The reports of ``mxsum table``, ``check`` and ``coeffs`` are the
behaviour a refactor must keep byte for byte. Each command runs in
process through ``cli.main``; a change that moves one of these hashes
changes a reported digit and must say why in CHANGES.md.
"""

import hashlib

import pytest

from mxsum.cli import main

# argv -> (exit status, sha256 of stdout)
GOLDEN = {
    "table 1": (1, "4d45d9f768febebd874fa77b709169efc0fba7dabdc582639abb22cd0416261f"),
    "table 2": (0, "1dccfb7e7a4593f36d518e42dd1c796d17b56fa3f9505be7e2b39b4a40b704f7"),
    "table 3": (0, "593cff2ed190dbadd0fd1375f6dc1bb72d51d1edfeabd5e86399396a0f7a3c59"),
    "table 2 --convention phi": (1, "b9fdf900f02040137e0cbed9ae0fb25b3fed905aa20bfe71b40dd67671a9b3a1"),
    "check": (0, "e9156fe2fbb5b576347d6ef7f1a97351cf50605e0ce7a93375cf92a76bc78b4d"),
    "coeffs Bhat --lambda 1 --K 50": (0, "c5e22bcd0f35b1fe19c71ca885cb526119333a879ace5c57ad86492a7e2a2efe"),
    "coeffs Bhat --lambda 6 --K 30": (0, "c11b9d4a48e77e7c4abaa3869a8b29607d4979450cb25326d7a28bc30f205572"),
    "coeffs B --lambda 20 --K 8": (0, "8e126bcd8704c0523ee0f3041947bdf351e72810ab2b6cb932b0f6911fc593ee"),
    "coeffs B --lambda 1 --K 50": (0, "c9ae1af5a34a58de7a327a040713076bf7b8af838688815403cd4a07a5158ce5"),
    "coeffs A --lambda 1 --K 20": (0, "9332e9cc7c6bb8761592ce04f935a81cdfd449944440730921422e537358d325"),
    "coeffs A --lambda 0 --K 60": (0, "36ee90b346e0c63d27e2093aa38f0f30d5c53706a3d0e477b4fde39785c1cee0"),
    "coeffs A --lambda 7.5 --K 60": (0, "8288ca28950ea35d0db579b7ad0c976031d7382d84172b2ba96ca123d940d385"),
    "coeffs Bhat --lambda 0.2 --K 20": (0, "c825392c5c24cf1ad3c0823ef2e76cc768ddb512de58d48a2c4ed4e1e16dd2d3"),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_report_bytes(command, capsys):
    status = main(command.split())
    out = capsys.readouterr().out
    assert (status, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[command]
