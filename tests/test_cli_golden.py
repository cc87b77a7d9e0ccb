"""Byte-identical CLI output on a fixed set of fast invocations.

Each digest is SHA-256 over the exit code, a newline, and everything the
invocation wrote to stdout.  A refactor that changes any rendered byte or
exit code of these commands fails here; a deliberate output change must
re-record the affected digest and say why.
"""

import hashlib

import pytest

from markovsum import cli

GOLDEN = {
    "compute apery --digits 33":
        "18476d6d36b9d04366dc6bb202d198e9fa0daf7e22033530c05744bd57b9c5b2",
    "compute markov-hurwitz --a 1/2 --digits 20":
        "3c382d7ea835913c04471cd083460c0811a1209dcc60cf9e4f1b02300281b2ee",
    "compute markov-hurwitz --a 1/3 --digits 25":
        "78725f5d297eb0bef1df3b6b4baeed186bc250f55731fc8dc53044b1402eee8c",
    "compute markov-hurwitz --a=-1/2 --digits 25":
        "599bccd55adfecf620296c90c2e15db6ef9cb513e3a58bd5c12e2f0d7bef33aa",
    # the JSON output pins rho and valid_from of the derived rate
    "--format json compute markov-hurwitz --a=-101/2 --digits 20":
        "755d32bcb83d845f36aaa48faa503f49087253f7b7ebd2743cb762bf44583fe2",
    "--format json compute markov-hurwitz --a=-7/3 --digits 20":
        "c5c45252d4e664cb3999f9c8977de9641eecc83141e14b67ab1ac7d58b21d919",
    "--format json compute markov-hurwitz --a 7/2 --digits 20":
        "7ccb7833dccf68cd43916596919cda3c8a25a85cfc76b94fea9fec4c4666133c",
    "compute hurwitz3-direct --a 7/9 --digits 4 --max-terms 512 --rounding truncate":
        "81fa8848bf1b61754a7a2202ba9f82fe78b62851cf63c8b74a83b76cc3d4f775",
    "verify-pair 3phi2":
        "a3cbb87bfc410f089220caba2f8784e6d6ef9a4522edaf0562010844e77eb37c",
    "verify-pair 3phi2 --a 3/4 --b 1/2 --c 1/3 --d 1/4 --q 2/5":
        "4ecf97e3d10363736db7caecf352e058762ea6faaf4df3c4123d451fe94dff2d",
    "verify-pair 3phi2 --fuzz":
        "954b0bf73d0d3742439374c5a276363d33176e3693d5155812a0e8987fdb3302",
    "verify-certificate --grid 8x8 --random-points 10 --seed 3":
        "1038a4245aa99cdac88e165415f93e06b8326a9ccb38c816105985b4059c8371",
    "solve 3phi2-u1 --x-max 6":
        "8178278d274ed810521a4c88c3e104eba9953f4049a7ee5ab2ddb765b9c5ac83",
    "solve 4f3-u2 --x-max 6":
        "3178301d5219af6be987b569cf66ba421a9a9281e1b52a4352c7f2f2d9c83809",
    "solve 4f3-wp-u3 --x-max 6":
        "9a45268e01d50cf7fe56e2e4b537040eb7bee3a32b33676c5c9e59b8401d0696",
    "--format json solve 3phi2-u1 --x-max 6":
        "74ab48433deb71db848435ba4887b70dfd2796eaf562803f837e7e015373a485",
    "--format json solve 4f3-u2 --x-max 6":
        "933a342e77ace23dc14248b500275c7bea56a7822f2f6128abe59cf3249ceeb7",
    "--format json solve 4f3-wp-u3 --x-max 6":
        "1569bd2e3000942dc4c258b62ee728182ddb30d47068e7d71d53fe88984ed3cc",
    "solve 3phi2-u1 --form u3 --x-max 3":
        "60a5bffe7c81cc3dd3f016458a69706634a71cbc3437cf2c1af1f6892c81d866",
    "compare zeta3 --digits 10":
        "99c0c82f807b6f02c4809a7980e301d625c3edb31f91b5fa244628544ceeb49e",
    "list":
        "3979d47e6e4555142fbce558b2328008071d36d98d0ebf243ee8d7766143cfff",
    "compute apery --digits 150":
        "472a6eb48b685bffffa40ff0ec530d23281d98d9a5343bc70e19544a3a7b0e71",
    "compute markov-hurwitz --digits 150":
        "272999efab9bbdfd4122664a384c186c4c19473a7ac77f456d689be9d9527d42",
    "compute ratio27-zeta3 --digits 150":
        "7c2b5df88d30f7e56a8937cc85a9ba332de7a99061014378e14ab11abfa949b5",
    "compute az-zeta3 --digits 150":
        "1a9d15da2b4f72d44513f26ea71e1f42fe112e5fbf7690f0521efa16dcaa943c",
    "compute zeta2-27 --digits 150":
        "4a444b090b530950bf2d0ac5d95a8f26cbf15c981c0368246acdcc21da672475",
    "compute schellbach-zeta2 --digits 150":
        "1c2a595c2204f0ad84ce3aee5bdbee59ca390e0ff96e3501c739eea2b84db58b",
    "compute apery --digits 1000":
        "ae3d19e2d4eda7659d8473a1dba54179691f1c6df039a0f817036715470ef6ec",
    "compute ratio27-zeta3 --digits 1000":
        "769eec75cff2d9cbc848ce5110faa9dd4dea5499c5d0916c51651333f58304c8",
    "compare zeta3 --digits 100":
        "7e80d2e72761f9bcbb8e9eb3ab9a3a704b0c4fbd65159f7ed1ffa8687988f5ad",
    "compute zeta2-direct --digits 3":
        "f078b8c918afd0f174eb14c89c824d2382947dd26884d5bfc3bd3f76ff4102f3",
    "compute eta2-direct --digits 6":
        "e10c5e4504b955c0608f368d33350da74e26ea9d81efa1f0870599f4c0995ccd",
    "compute eta3-direct --digits 6":
        "5dfe5fcc8355313ef9ca713746c25a3a50131497e520a36820b9bc43913e1b66",
    "compute hurwitz3-direct --a 1/2 --digits 3 --max-terms 512":
        "f8ede4776c6edd54432cb2eeab823d0b1e18bd96746a0175b74bb3c61ce2ce09",
    "compare zeta2 --digits 10":
        "0368bbdd35f43aeecbacbd35c3bf2d726e5cf0a50d366468ca5c644631969552",
    # re-recorded on the majorant 2n + 10, whose bound is about 0.92 times the
    # integral-comparison 27/sqrt(2N+9) it replaced: width 1.0959 became 1.0097
    "compute kummer --digits 1 --max-terms 300":
        "61786e4d0f2d2940d978b5a9e36f2b85731cd93b244e4a0534f0770c33270584",
    # recorded on the integral-comparison tails, before the majorants that
    # give the same bounds; the JSON holds both enclosure bounds
    "--format json compute zeta3-direct --max-terms 400":
        "02c95af2edaec3e9c41f32113b36da193c01231015db596e87b58e932485eb89",
    "--format json compute zeta2-direct --max-terms 400":
        "00cde8568bba0611b04f171c2989476f4364431b78869537a9c519622d99350d",
    # the majorant's certificate starts at n = 1
    "--format json compute hurwitz3-direct --a 1/6 --max-terms 512":
        "20a7f36799792715b1c557e6e4b510af4c95bf74746b4e369e4e178413262621",
    "solve 3phi2-u1 --x-max 60":
        "13fe20dd0601aa1be706bf8fd7378f9ff17d3de16056ffa59b2781e5a2554ff0",
    "solve 4f3-u2 --x-max 60":
        "c154b667e2dc03681ec9ffb9172dc790c78fa39aff312d8768a6eb018496a5f4",
    "solve 4f3-wp-u3 --x-max 60":
        "0bbfdbe67f9a1c9d65caa57871c843ba3a02f806a38e3dcfb2ab7a546a9933c6",
    # an upper parameter at a nonpositive integer: F = 0 past it, all-zero rows
    "solve 4f3-u2 --params=-1,1/3,2":
        "b9e5d0b6bff6534bce770379d81fff86a3ee8e2a162dcb78085da5f315da75a9",
    "solve 4f3-wp-u3 --params=-2,2":
        "b9e5d0b6bff6534bce770379d81fff86a3ee8e2a162dcb78085da5f315da75a9",
    "solve 3phi2-u1 --params 1,1/5,1/7,1/11,1/2":
        "b9e5d0b6bff6534bce770379d81fff86a3ee8e2a162dcb78085da5f315da75a9",
    # any nonzero parameters, whatever q and t are: the solver needs no convergence
    "solve 3phi2-u1 --params=1/3,1/5,1/7,1/11,2":
        "456a9fdf074a8f080908ad0cb127fbc517049b86adba81887e187aac4276a389",
    "solve 3phi2-u1 --params=1/3,1/5,3,5,1/2":
        "7f69cbaeadc89a3e0dde6918ac3925c091754bd3ca502df32eb15bad19083bd6",
    # c q^2 = 1: exit 65, nothing on stdout
    "solve 3phi2-u1 --params=1/3,1/5,4,1/11,1/2":
        "979b894f2d91bf199766571d58024f020d1a44a417da5f48e1fa1cdf554a14f5",
    # a zero parameter is still a usage error
    "solve 3phi2-u1 --params=0,1/5,1/7,1/11,1/2":
        "913f5d1da2feaf4deeccc9e55cbb350a20f12b3f507e87be85dbb77fdd3cb9bc",
    # recorded on the described ratios, before their shared polynomial factor
    # was cancelled; the JSON holds ratio_bound and both enclosure bounds
    "compute markov-hurwitz --digits 4000":
        "1ad0b55a44f2e23753e7ba82e3af0889b5f6ca72ab287dad2c7390dbc525e41a",
    "--format json compute markov-hurwitz --digits 1000 --rounding truncate":
        "3aa591250c79117366e327c36c04306963e9b5611a68f026a23b8b7eb305b1a7",
    "--format json compute markov-hurwitz --digits 1000 --rounding round-half-even":
        "63c43ceaa88ac9fbf7bf0d46d8d6d983a84209323b3b21fd94ebef0793b94439",
    "compute schellbach-zeta2 --digits 4000":
        "2a8399d0a5e81985da579d72b9d44717995247603cbc2e49ecee211a0ca9cc78",
    "--format json compute schellbach-zeta2 --digits 1000 --rounding truncate":
        "f9b8e04d339d1b1d83a65d90909fd02795933e31256630d15db0288c3c2e1891",
    "--format json compute schellbach-zeta2 --digits 1000 --rounding round-half-even":
        "da7b097a255903a0e2a252ae4e7c31fe7d43d2a61e785c0d36f4906478580687",
    "compute az-zeta3 --digits 4000":
        "dc982711fd0a010ca7334737cb0d53d28ab4238d1fbfddcc5cdd81155395e314",
    "--format json compute az-zeta3 --digits 1000 --rounding truncate":
        "ee746154dcaca2d9667358a55a252d7fc3e861b35f4925808967323ee8361b5e",
    "--format json compute az-zeta3 --digits 1000 --rounding round-half-even":
        "d425a039c6c92c64d4fc017d05d012f87f3503c4b6faf8746647a1e9f8b24156",
    "compare zeta2 --digits 4000":
        "add63accf2bc14235e9595afe92e96e219704707034587d0b892535124c8b259",
}


#: deep requests, recorded from the search that stepped one index at a time;
#: each takes about a second or more
DEEP_GOLDEN = {
    "compute apery --digits 4000":
        "11355daf29a0cdbc2be4b4b09b33cca2644f513b888e0b5288d9ab2eecd2215e",
    "compute apery --digits 10000":
        "bc67b3e7eae94588816060876d4ffb7d343574dfeb12be8b13eb25a091918058",
    "--format json compute apery --digits 10000 --rounding truncate":
        "2b1e18ec8892ac88215a4d55bd12eb15eec15e478f7880c3a1dfe7b32603a606",
    "--format json compute apery --digits 10000 --rounding round-half-even":
        "d5d960c7c6effae8b349b6f866bcb7cc2397531ea52468d5b82efc0bc20bd772",
    # valid_from = 15679: the first span reaches it in one split
    "compute markov-hurwitz --a=-2399/2 --digits 20":
        "17ae532a57b5569496c88238b7e1dc9caec2a1b048c72d36ccb0a3b1527a1776",
}


def digest(capsys, argv: str) -> str:
    code = cli.main(argv.split())
    out = capsys.readouterr().out
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_golden_output(capsys, argv):
    assert digest(capsys, argv) == GOLDEN[argv]


@pytest.mark.parametrize("argv", sorted(DEEP_GOLDEN))
def test_deep_golden_output(capsys, argv):
    assert digest(capsys, argv) == DEEP_GOLDEN[argv]


def test_zeta3_formulas_agree_at_10000_digits(capsys):
    assert digest(capsys, "compare zeta3 --digits 10000") == \
        "8b65ecfb75bd367592a93c394366fe75670225ece0af7e508e7a4441284c3dcb"


@pytest.mark.parametrize("argv, point, label", [
    # a lower parameter at a nonpositive integer: F is undefined from x + z = 1 - b on
    ("solve 4f3-u2 --params=1,1/3,-1", "(x=0, z=2)", "4F3(1,1/3,-1)"),
    ("solve 4f3-wp-u3 --params=1,-3", "(x=0, z=4)", "well-poised(1,-3)"),
])
def test_first_singular_point_and_message(capsys, argv, point, label):
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    assert (code, captured.out) == (65, "")
    assert captured.err == (f"evaluation singularity at {point}: {label} undefined at "
                            f"{point}: lower rising factorial vanishes at {point}\n")


def test_q_series_singularity_names_the_vanishing_pochhammer(capsys):
    # c q^2 = 1 at c = 4, q = 1/2: (c,d;q)_3 vanishes, first read on the step to (0, 3)
    code = cli.main("solve 3phi2-u1 --params=1/3,1/5,4,1/11,1/2".split())
    captured = capsys.readouterr()
    assert (code, captured.out) == (65, "")
    assert captured.err == ("evaluation singularity at (x=0, z=3): (c,d;q)_3 vanishes for "
                            "c=4, d=1/11\n")
