"""Golden bytes: sha256 of the standard output, and the exit status, of
the report commands and of ``mxsum eval``.

The reports of ``mxsum table``, ``check`` and ``coeffs``, and the
``eval`` output of every method (both signs where it has both, each
format, ``--K`` and ``--tol`` where a method takes them), are the
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
    # the three table 2 reports: re-recorded when direct_sum took n^2 + a^2 as
    # (n + ia)(n - ia) at complex a; error cells moved in their 9th digit, and
    # no verdict changed
    "table 2": (0, "5597743dd00b0f873367e3e86ab42c66727752d7eadda6502371e6d2a051b00a"),
    "table 3": (0, "593cff2ed190dbadd0fd1375f6dc1bb72d51d1edfeabd5e86399396a0f7a3c59"),
    "table 2 --convention phi": (1, "16d35375c8712012344cd79061c0c4e57ed93c7e3a5ff347b1f8a42cc0b53eae"),
    # re-recorded when the tail rows took H, too, at 40 digits and the decay fit set digits per point
    "check": (0, "5bb453742597a7436a368a7a35e8115ffc061612301ebee6775940505aab5f4d"),
    "coeffs Bhat --lambda 1 --K 50": (0, "c5e22bcd0f35b1fe19c71ca885cb526119333a879ace5c57ad86492a7e2a2efe"),
    "coeffs Bhat --lambda 6 --K 30": (0, "c11b9d4a48e77e7c4abaa3869a8b29607d4979450cb25326d7a28bc30f205572"),
    # re-recorded when B above lam = ln 3 took tanh(lam/2) as 1 - delta: rows
    # k >= 1 moved from 9.0e-9 to at most 2.0e-16 relative of the 40-digit values
    "coeffs B --lambda 20 --K 8": (0, "bba4b1ca9dc23b02bac699fdd047df16f6ef2d00cb3ba57aa9b39e396fcd4c9a"),
    "coeffs B --lambda 1 --K 50": (0, "c9ae1af5a34a58de7a327a040713076bf7b8af838688815403cd4a07a5158ce5"),
    "coeffs A --lambda 1 --K 20": (0, "9332e9cc7c6bb8761592ce04f935a81cdfd449944440730921422e537358d325"),
    "coeffs A --lambda 0 --K 60": (0, "36ee90b346e0c63d27e2093aa38f0f30d5c53706a3d0e477b4fde39785c1cee0"),
    "coeffs A --lambda 7.5 --K 60": (0, "8288ca28950ea35d0db579b7ad0c976031d7382d84172b2ba96ca123d940d385"),
    "coeffs Bhat --lambda 0.2 --K 20": (0, "c825392c5c24cf1ad3c0823ef2e76cc768ddb512de58d48a2c4ed4e1e16dd2d3"),
    "table 2 --format json": (0, "ca3dc8afe72844c5370d2ba1d93bb9693591b0396cc600309fd19dc48e0045f1"),
    "check --format json": (0, "bfa84223ecaa4743e2353d8007ff0c65c2ad418ee8500f883e4b0e3073706a1f"),
    # eval: every method; oracle at real a only, whose terms take float pow
    "eval --mu 0.5 --lambda 1 --a 6 --method oracle --tol 1e-14": (0, "1430a859e34ceeecd4875205b7bd1f728444abef925afce9f6d3f186c63b8b06"),
    "eval --sign plus --mu 1.5 --lambda 0.5 --a 2 --method oracle --format csv": (0, "b4323e2088f51d0027cb47132e6063a4a76759936835427330bd7b37eab7e76f"),
    "eval --mu 0.5 --a 0.5 --method small-a": (0, "16a2ca0819e8c9d55438454bd3202e85dc2c0668d9a233697ee06941f09cc83b"),
    "eval --mu 0.5 --a 8 --method algebraic --K 4 --format json": (0, "3b82d8a5bcaaf3e93a18f1fab24eb73d1e71ab6955f08d93772f980dae1f23c3"),
    "eval --sign plus --mu 0.25 --a 10 --method algebraic --format csv": (0, "1d700fea018ded1eb244aa3019dbe93561b75470811f5353b985026314bf060c"),
    # re-recorded, as the j-mu --tol 1e-10 and default --a 6 cases below,
    # when a quadrature side came to end at its first negligible node:
    # notes 128 -> 117 integrand evaluations; the value kept its bits
    "eval --mu 0.5 --a 3 --a-im 0.5 --method full --format json": (0, "6ffb4ae70623ca0ca38739ed6d063094649ccc8d136e496fcd9bccd1ac0c69ea"),
    "eval --sign plus --mu 0.75 --lambda 0.5 --a 4 --method full": (0, "149f26c5533ec0d8cd6cee577acbe828ced0fb2656f901acda172926bc377da8"),
    "eval --mu 0.5 --a 3 --method tail --format csv": (0, "6a69e3e1fae458e4933692be3581b9893515fceff09edf346ffd296567afd09c"),
    "eval --sign plus --mu 0.5 --a 2 --method tail --format json": (0, "3307860361e5f9503525a4d7c0de855af56d68aa46bb8a6d71a670f69f6d694f"),
    # notes 107 -> 97 integrand evaluations; the value kept its bits
    "eval --mu 0.5 --a 3 --method j-mu --tol 1e-10": (0, "7f9a8bec0095980bd19029bf35025affdee2c8f62e249992f7c54126e1e7bf21"),
    "eval --sign plus --mu 0.5 --a 20 --method j-mu --K 3 --tol 1e-10 --format json": (0, "4bf2595b023ba590969c09098af6513108e506c89fdaea9740f1fa77e7e21397"),
    "eval --mu 2 --a 1.5 --method integer-mu": (0, "b0f82d480dd5892f7238937e9c07eb3c256d9cbef14dc1a3bf5ec2b804a3235a"),
    "eval --sign plus --mu 3 --lambda 0.5 --a 2 --method integer-mu --format csv": (0, "1f721b271ff870f2e855a2dfbab88f581ba7a84fd37da7ab339f2ec27d428b7f"),
    "eval --mu 0.75 --lambda 0 --a 2 --method lambda0 --format json": (0, "400305359579447716ea67468c9ebd68d279a2eaf9fc38ed09bc37c86276b4bc"),
    "eval --sign plus --mu 1.5 --lambda 0 --a 1 --a-im 0.5 --method lambda0": (0, "55785ba3f1508fcddbc6813b19ea2cd32a16b5885eff2a8b8114606710c5be49"),
    # notes 125 -> 114 integrand evaluations; the value kept its bits
    "eval --mu 0.5 --a 6": (0, "8482656577617eb5bad6a87b8172e434ee7f07256c730359c52507547bc9bef0"),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_report_bytes(command, capsys):
    status = main(command.split())
    out = capsys.readouterr().out
    assert (status, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[command]
