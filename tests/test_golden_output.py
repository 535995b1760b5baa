"""Golden outputs: SHA-256 of learned trees and induced grammars.

A refactor or speed-up of the learner, the merge or the induction must not
change what they produce. These digests pin the indented tree dump and the
Tracery JSON for the deep corpora of seeds 0-7, at n=100 with no height
cap and at n=40 with ``max_height=2``. A change that names a behaviour fix
updates them and says so.
"""

import hashlib

import pytest

from gramtree import induce_grammar, to_tracery
from gramtree.tree import format_tree, learn_template_tree

from conftest import deep_corpus

TREES_N100 = (
    "44ddee52dbd39c8aa20e9d131e7eabedb740682bff0922c11d05677231e5f562",
    "6cefd09343b4cc038909a7c0026a08e78975664276fc2b341a7b24fd7c71f1b2",
    "62028319222e394835dd98d9e836b5dcc754228d219f69d08faf35aa0bcdccf5",
    "aa25469ff88e609d15e23f5fba2ccb9b81b531dde292192436909166574dafcd",
    "af690500e9d4766955e3e10ddb79ad98bb47451d9befe163c2aa4cfb5a0159d2",
    "e893d4e58e411c8959385a497187413cf5705a73d9b2311f55273412f6f8a12a",
    "1be3ff6e7aaa8006da8d53b64b95eb506b3f3bcdc6a0c10a50fae5cd61bf336e",
    "5e494c04d7236fd28d771f4573addf47c00e518c6fadbc79ea7b006ec0df14f4",
)
GRAMMARS_N100 = (
    "d1c2af1f689a621cb0ae2e4a3d6263546bd7e13ce366200ce2894fd1c00921cd",
    "25e2ee0638ae5aac17054fc7818d2823ea2efb12fedabf18aa1e342eb662353b",
    "8211db253938fb3696e9125190ce7307f3e179c96e9bf4319e98cddd4a76def7",
    "0c60e071844c88f0868117c2b612e9ce364a4e17f21a74facc99b50f3869dc9b",
    "a37b4c026f22fceeea06518d255d661a0cc932db0f0b16ae79aa18d7fc2b6637",
    "11cea015913830135d37c1786eb24275922dd33023ae73dd8f15d6d57f33e854",
    "fad139a83e801b6b7005ed97bcf7f0a8f97faed457a57d55e7601d2c53f54dc4",
    "f78cc9d9564343f06cfdc72ef20d6903b1393a7441d988deba3994b78b21ec61",
)
TREES_N40_HEIGHT2 = (
    "ebc9c5e90e8f5abece59e1102c248413787d21d68692e04b694fbc589ae07b2c",
    "4426e620e1b4abaa337e9401a066508f94bb3441db7c74ef66b8f0cb77981109",
    "c4da3801d9a40d84d88353ef593483ac4610b348075c963bfde124c6df384f9b",
    "381c40437257b36e5826dbd5c91c45cf91e3aeb0c4c710f4227e4dd588f0dea4",
    "43893857a650546ad77ed1c1c398936d0bfdb35cc51f9b2cd539d8256604ab49",
    "d4a1aa7871029aeab444e29f6e33b29883bf80cc777c294e572506e28adbc5d5",
    "89ead8acb6a807fcaad0e9e2ed016a2d4a0079af967b6624fac85c2479634f3e",
    "82e94cae50fbabb723235a3c398d4f2229573e22fc41256862182d5b39389911",
)
GRAMMARS_N40_HEIGHT2 = (
    "90f0d344a785a226b1cbb5ccbe2d0eb1e95edda1865bd7e648a92d55793b9b91",
    "0c15973f848ecf5015976df6dc722bf89c821cc5419dc8facf45eb909cf00afe",
    "02a2c16363ca824e00d6b1b2fdd31c5d329b6c1c06668e3cfc59911f6b7cdd4a",
    "febc0eb8ced2c5d9a2fb364f559f20669fc6d059366a8578f7ab3e883f908ef7",
    "1d589373ec606d70604a03b1aa9d724c8b013821f10ecb6b51c751cbb2e8346f",
    "007c4aa7ce76a5955cdc6c136822dd88fd364dc22e62804050794c897009a0fd",
    "73b19bea39e21609378f092ac4ba9033209fa76494accba824e32bc46f037253",
    "cbda7553826d57382236832d0e12799626455cabac9364d45b45cc0f022f374e",
)

CASES = [
    (seed, n, max_height, trees[seed], grammars[seed])
    for n, max_height, trees, grammars in (
        (100, None, TREES_N100, GRAMMARS_N100),
        (40, 2, TREES_N40_HEIGHT2, GRAMMARS_N40_HEIGHT2),
    )
    for seed in range(8)
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "seed, n, max_height, tree_digest, grammar_digest",
    CASES,
    ids=[f"seed{c[0]}-n{c[1]}-height{c[2]}" for c in CASES],
)
def test_outputs_match_their_golden_digests(seed, n, max_height, tree_digest, grammar_digest):
    corpus = deep_corpus(n, seed)
    tree = learn_template_tree(corpus, max_height=max_height)
    assert sha256(format_tree(tree, ascii_slots=True)) == tree_digest
    assert sha256(to_tracery(induce_grammar(corpus, max_height=max_height))) == grammar_digest
