"""Golden bytes: sha256 of the standard output, and the exit status, of
the report commands and of ``mxsum eval``.

The reports of ``mxsum table``, ``check`` and ``coeffs``, and the
``eval`` output of every method (both signs where it has both, each
format, ``--K`` and ``--tol`` where a method takes them), are the
behaviour a refactor must keep byte for byte. Each command runs in
process through ``cli.main``; a change that moves one of these hashes
changes a reported digit and must say why in CHANGES.md.

The usage, help and error texts of the command line are pinned the
same way, stdout and stderr apart, at a fixed width of 80 columns.
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
    # just below Bhat's switch at lam = 4, where the coth series is slowest
    "coeffs Bhat --lambda 3.9 --K 12": (0, "1543d3f4dd0bd2c1532dbd222aba75e9dc92d866e5e47ade092ac4aed407aa50"),
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
    # notes 128 -> 117 integrand evaluations; the value kept its bits.
    # The full, tail and lambda0 cases, and the default --a 6, were
    # re-recorded when the Bessel sums came to stop on a bound of their
    # next term: tail_terms_used alone moved (4 -> 3, 3 -> 2, 4 -> 3,
    # 5 -> 4, 5 -> 4, 8 -> 7 and 3 -> 2 in the order of the cases), and
    # every value, estimate and note kept its bits
    "eval --mu 0.5 --a 3 --a-im 0.5 --method full --format json": (0, "fab7acdb324d871d526bd9d2a22b67e9aa1f34c62501cad14f82cbb91139aa3f"),
    "eval --sign plus --mu 0.75 --lambda 0.5 --a 4 --method full": (0, "7cd491c835779a868244bfb5cf9564ee6299dad690c8642e27574d16c6c55a98"),
    "eval --mu 0.5 --a 3 --method tail --format csv": (0, "8f6ea8c77f397a414e1b30c822e47de521108174023ef0a64cf428687f06bb0b"),
    "eval --sign plus --mu 0.5 --a 2 --method tail --format json": (0, "33679e7df94ad3df81a53591dee1d2948cf1a794f6b9fe2b212d725e3c2fdcda"),
    # notes 107 -> 97 integrand evaluations; the value kept its bits
    "eval --mu 0.5 --a 3 --method j-mu --tol 1e-10": (0, "7f9a8bec0095980bd19029bf35025affdee2c8f62e249992f7c54126e1e7bf21"),
    "eval --sign plus --mu 0.5 --a 20 --method j-mu --K 3 --tol 1e-10 --format json": (0, "4bf2595b023ba590969c09098af6513108e506c89fdaea9740f1fa77e7e21397"),
    "eval --mu 2 --a 1.5 --method integer-mu": (0, "b0f82d480dd5892f7238937e9c07eb3c256d9cbef14dc1a3bf5ec2b804a3235a"),
    "eval --sign plus --mu 3 --lambda 0.5 --a 2 --method integer-mu --format csv": (0, "1f721b271ff870f2e855a2dfbab88f581ba7a84fd37da7ab339f2ec27d428b7f"),
    "eval --mu 0.75 --lambda 0 --a 2 --method lambda0 --format json": (0, "1937ad92a1c2062008a5f372ff7f65d57f61fd74c5093fc37af4822449ccddef"),
    "eval --sign plus --mu 1.5 --lambda 0 --a 1 --a-im 0.5 --method lambda0": (0, "3c9884bef138a63d2517d3af87e4428fb467039925f8692f6b73b630317a215d"),
    # notes 125 -> 114 integrand evaluations; the value kept its bits (and
    # tail_terms_used 3 -> 2, see above)
    "eval --mu 0.5 --a 6": (0, "12b9c1143ab0b3367aa9fbe0dc06072155a828657cb78eb6eade923678716253"),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_report_bytes(command, capsys):
    status = main(command.split())
    out = capsys.readouterr().out
    assert (status, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[command]


EMPTY = hashlib.sha256(b"").hexdigest()

# argv -> (exit status, sha256 of stdout, sha256 of stderr)
USAGE = {
    "--help": (0, "72a9dc0fedbd00e229ed9001d8b3ff3c9d9564591ba2613c0958d7366908e66d", EMPTY),
    # re-recorded when the default method came to serve mu = 0 and lam = 0
    # with sign +: the lines of "default method: ..." and the help of
    # --method moved, and nothing else
    "eval --help": (0, "f4d647811a20128c3f6350b3f3f24f7d1520fc00c1822c5af2e6776840beb5d2", EMPTY),
    "table --help": (0, "e716307695c4e5784d1767aa4c028df7e69dec1ab808434fe49b05f3531278c1", EMPTY),
    "coeffs --help": (0, "73463233f4c797b0988dbdac7ae8f0af1dbab8f128c5582ae9e22d537bd45e50", EMPTY),
    "check --help": (0, "e68a89d232f3794ff4ced8ab7b2551c07bdc58e50ee58fd2b078f3b6a589aa92", EMPTY),
    # the top-level parser.error of --K outside the expansions
    "eval --mu 0.5 --a 3 --K 5": (2, EMPTY, "d5b1bad77321c6577701c169c1aa5e563e1500f3432bba5a5e1fba97b12738cb"),
    "eval --mu 0.5 --a 3 --K 5 --method full": (2, EMPTY, "d5b1bad77321c6577701c169c1aa5e563e1500f3432bba5a5e1fba97b12738cb"),
    "frobnicate": (2, EMPTY, "e108e9f8ff6a36f54a8b6369f9bc8714a32bec4480e00cdab0689d2d36de7b98"),
    "": (2, EMPTY, "e047c49a7daef0be171ff7591a42f2c94c7f28a80fda37db5a935d7e8eeb71cf"),
    "eval --mu abc": (2, EMPTY, "6141d02ee420045d31884fe9983ec4358c51e80422911a784fc7e264395d2621"),
    "coeffs B --lambda nan?": (2, EMPTY, "41b58d2db8daa1f61e84ce67a3314740bddcc9e21e8cdd69cdbe82b9d9a795b9"),
    "table 9": (2, EMPTY, "5db213d1dbec7f0fe38776d78e7c96a66e80b4a6b4e6ad0674e4c393f452e60c"),
    "eval --mu 0.5 --no-such-flag": (2, EMPTY, "e96a0a5ea3fe5dcf30cf44cc8384c3961629ea76a2746172ed477d56e03f2ef4"),
}


@pytest.mark.parametrize("command", list(USAGE))
def test_usage_bytes(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(command.split())
    out, err = capsys.readouterr()
    digest = [hashlib.sha256(text.encode()).hexdigest() for text in (out, err)]
    assert (exit_.value.code, *digest) == USAGE[command]
