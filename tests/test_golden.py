"""Digests of serialized output, pinned so that refactoring the automaton
layer cannot change a byte of what the library writes.

Each case hashes the game file, the class report, the JSON form of every
automaton the game and its strategies give rise to (target, rule DFAs and
NFAs, strategy automata, losing NFAs), the strategy files and the
prefix-freeness witnesses.  Cases are the fixtures and random_game seeds
0-49 under two parameter sets.
"""

import hashlib
import json
import random

import pytest

from cfgame.analysis import exists_winning_sreg, losing_nfa
from cfgame.automata import (
    Nfa,
    determinize,
    dfa_to_dict,
    is_prefix_free,
    nfa_to_dict,
    regex_to_nfa,
)
from cfgame.fixtures import fixture, fixture_names
from cfgame.games import classify, dump_game, to_prefix_free
from cfgame.generators import from_3sat, from_nfa_universality, random_game
from cfgame.online import OnlineInstance, _pruned_transitions, prune_weakly_dominant
from cfgame.play import dump_strategy, strongly_regular_automaton
from cfgame.synthesis import (
    _bitmask,
    build_inducing_automaton,
    build_ne,
    effect_fixpoint,
    synthesize_weakly_dominant,
)
from conftest import kth_from_last_nfa
from oracles import small_formulas

RANDOM_PARAMS = {
    "plain": {},
    "pf": {"constraints": ["prefix_free", "non_recursive"], "target_states": 4},
}


def _texts(game, strategies):
    yield dump_game(game)
    yield json.dumps(classify(game).as_dict())
    yield json.dumps(dfa_to_dict(game.target))
    for a in game.function_symbols:
        yield json.dumps(dfa_to_dict(game.replacement_dfa(a)))
        yield json.dumps(nfa_to_dict(regex_to_nfa(game.rules[a], game.alphabet)))
        yield repr(is_prefix_free(game.replacement_dfa(a)))
    for name in sorted(strategies):
        strategy = strategies[name]
        yield name
        yield dump_strategy(strategy)
        yield json.dumps(dfa_to_dict(strategy.automaton(game)))
        yield json.dumps(nfa_to_dict(losing_nfa(game, strategy)))


def _case(case):
    kind, _, rest = case.partition(":")
    if kind == "fixture":
        fx = fixture(rest)
        return fx.game, fx.strategies
    label, seed = rest.split("/")
    game = random_game(RANDOM_PARAMS[label], int(seed))
    pairs = [
        (q, a)
        for q in range(game.target.n_states)
        for a in game.function_symbols
    ]
    return game, {"sreg": strongly_regular_automaton(game, pairs[int(seed) % 2::2])}


def case_digest(case):
    digest = hashlib.sha256()
    for text in _texts(*_case(case)):
        digest.update(text.encode("utf-8") + b"\0")
    return digest.hexdigest()[:16]


CASES = ["fixture:%s" % name for name in fixture_names()] + [
    "random:%s/%d" % (label, seed) for label in RANDOM_PARAMS for seed in range(50)
]

# recorded before the automaton routines and the strategy types were merged
GOLDEN = {
    "fixture:g1-recursive": "ef3b596cf393bb86",
    "fixture:g1c-undominated": "a456b4dbe496e8fb",
    "fixture:g2-regular-not-sreg": "1617641fb195c474",
    "fixture:g2c-undominated": "114145e00730ebbf",
    "fixture:sandbox": "cb1aaea4b0f5dc60",
    "random:plain/0": "a4f1a9550c6da6ac",
    "random:plain/1": "3317c3e94493e883",
    "random:plain/2": "b71bc6a95532e629",
    "random:plain/3": "edeec8aec85a2bbd",
    "random:plain/4": "12499a137c24b6b0",
    "random:plain/5": "16ce1ff96af7a860",
    "random:plain/6": "70305c80dc03e5b7",
    "random:plain/7": "5b1699c32d58e4d9",
    "random:plain/8": "9432264d91876e99",
    "random:plain/9": "cf743913c5baf64a",
    "random:plain/10": "65aca950b568fd66",
    "random:plain/11": "6243d7b48f7addb5",
    "random:plain/12": "05a64a04b8f02f10",
    "random:plain/13": "bc3a57189535239c",
    "random:plain/14": "2c34c654893635dd",
    "random:plain/15": "bd4652594536a581",
    "random:plain/16": "13bd35ece000c4f0",
    "random:plain/17": "2f76ce0bd7a72e00",
    "random:plain/18": "ca53f951bfb03d7b",
    "random:plain/19": "3db4cf875a4d05db",
    "random:plain/20": "2d879e631c87a4d4",
    "random:plain/21": "d4d1b6ef203e9333",
    "random:plain/22": "56227bcf79fbda1d",
    "random:plain/23": "6a2928a74cadc177",
    "random:plain/24": "009f0c5d5dbcf990",
    "random:plain/25": "0f08655f2eb6f7fb",
    "random:plain/26": "0ed3ed2167050969",
    "random:plain/27": "b7cfe39ad5766fbb",
    "random:plain/28": "2460cfacf6da7368",
    "random:plain/29": "924ae3edfef900e5",
    "random:plain/30": "decbf7707ca0ae64",
    "random:plain/31": "3ea0052250c3aab1",
    "random:plain/32": "5715a261ec187307",
    "random:plain/33": "bf32e96f6820c65a",
    "random:plain/34": "9ff8dcc5224ac298",
    "random:plain/35": "8a748d7ab83a2eed",
    "random:plain/36": "c345c4f9619e7788",
    "random:plain/37": "87f3b14a46b94658",
    "random:plain/38": "84a776bebe4ff079",
    "random:plain/39": "8205638c5ba90dc0",
    "random:plain/40": "de9fb09ba961a03d",
    "random:plain/41": "88af7a07a11b26fe",
    "random:plain/42": "5e214892ac5a157e",
    "random:plain/43": "5211b47f3145f40f",
    "random:plain/44": "c4bacfaa5746856f",
    "random:plain/45": "a2c78280cc14e11f",
    "random:plain/46": "a6cfb149b4eed9c8",
    "random:plain/47": "207cd5849294fcd2",
    "random:plain/48": "7500f2561a6f7783",
    "random:plain/49": "551fc2ed4c002b27",
    "random:pf/0": "8cb4e893dbbd0523",
    "random:pf/1": "0edafc2ecc1915e4",
    "random:pf/2": "7debd7c97fbc0a41",
    "random:pf/3": "f1e2f31431cc775a",
    "random:pf/4": "92635fe7f48df792",
    "random:pf/5": "716bd99194935289",
    "random:pf/6": "dd48512064c2cd75",
    "random:pf/7": "0e7979ae53595157",
    "random:pf/8": "f7a36f9fb8c48ebd",
    "random:pf/9": "a62bd7a7ab96bfca",
    "random:pf/10": "56914e739de1da48",
    "random:pf/11": "fb3ba1b46285e5db",
    "random:pf/12": "e3f48e8d23b1f901",
    "random:pf/13": "7233fe54326f0868",
    "random:pf/14": "e0a9173cacb8e9db",
    "random:pf/15": "54cddb95c9c79604",
    "random:pf/16": "011856335689132d",
    "random:pf/17": "22e17a92467c2ab4",
    "random:pf/18": "832cbb224fe5ca9f",
    "random:pf/19": "5ec6ec706d415e59",
    "random:pf/20": "2eb7828203a6a2d1",
    "random:pf/21": "579bb65b2926168f",
    "random:pf/22": "2077c6a1914a964e",
    "random:pf/23": "f49979ea486c3cc0",
    "random:pf/24": "1e7deff72a203177",
    "random:pf/25": "026c00fef7d77ed9",
    "random:pf/26": "3d313f4ba4bd87fe",
    "random:pf/27": "f50c458dc1fcc743",
    "random:pf/28": "cff0b4a167acd49d",
    "random:pf/29": "26af958ca038c99d",
    "random:pf/30": "77ad69df403ee964",
    "random:pf/31": "9adba3b35bc57db0",
    "random:pf/32": "3d50954a9177f9da",
    "random:pf/33": "dc1e4e8fea1451dd",
    "random:pf/34": "3ba02253f78c3993",
    "random:pf/35": "3f7fe47f3dad261d",
    "random:pf/36": "7b806506209bae1c",
    "random:pf/37": "0b2dbb073e53da4d",
    "random:pf/38": "3bcdfaa10686f461",
    "random:pf/39": "199fc72df49d9e54",
    "random:pf/40": "f5fb9b6849ce4009",
    "random:pf/41": "3daeac7620c7e8fd",
    "random:pf/42": "05a62c7749584858",
    "random:pf/43": "7174a68fbbddd303",
    "random:pf/44": "04e299f5ef54969e",
    "random:pf/45": "32eb0f06a8f2f400",
    "random:pf/46": "de75a2d8c12d3915",
    "random:pf/47": "871fbb62b9dd9313",
    "random:pf/48": "6ca86213e991e07a",
    "random:pf/49": "db327fe709055647",
}


@pytest.mark.parametrize("case", CASES)
def test_output_digest_golden(case):
    assert case_digest(case) == GOLDEN[case]


# Synthesis output: the strategy automaton, its state labels, the pruned
# subset choice, and the inducing automaton of every admitted triple.
# Fixtures that are not prefix-free are transformed first.


def _canonical(value):
    if isinstance(value, frozenset):
        return sorted(_canonical(v) for v in value)
    if isinstance(value, (tuple, list)):
        return [_canonical(v) for v in value]
    return value


SYNTH_PF_PARAMS = {
    "alphabet": 3,
    "rule_length": 3,
    "constraints": ["prefix_free", "finite_replacement"],
}
# the synth-pf benchmark games at 6 target states, and the same draw at
# 7, 8 and 10
SYNTHESIS_PARAMS = dict(
    RANDOM_PARAMS,
    pf6=dict(SYNTH_PF_PARAMS, target_states=6),
    pf7=dict(SYNTH_PF_PARAMS, target_states=7),
    pf8=dict(SYNTH_PF_PARAMS, target_states=8),
    pf10=dict(SYNTH_PF_PARAMS, target_states=10),
)


def _synthesis_game(case):
    kind, _, rest = case.partition(":")
    if kind == "fixture":
        game = fixture(rest).game
        return game if classify(game).prefix_free else to_prefix_free(game)
    label, seed = rest.split("/")
    return random_game(SYNTHESIS_PARAMS[label], int(seed))


def _synthesis_texts(game):
    strategy = synthesize_weakly_dominant(game)
    yield json.dumps(dfa_to_dict(strategy.dfa))
    yield json.dumps(_canonical(strategy.labels))
    yield json.dumps(dfa_to_dict(strategy.pruned))
    effects = effect_fixpoint(game)
    for triple in effects.triples():
        ind = build_inducing_automaton(game, triple, effects)
        yield json.dumps(_canonical(triple))
        yield json.dumps(dfa_to_dict(ind.strategy.dfa))
        yield json.dumps(sorted((q, sorted(s)) for q, s in ind.partitions.items()))


def synthesis_digest(case):
    digest = hashlib.sha256()
    for text in _synthesis_texts(_synthesis_game(case)):
        digest.update(text.encode("utf-8") + b"\0")
    return digest.hexdigest()[:16]


SYNTHESIS_CASES = ["fixture:%s" % name for name in fixture_names()] + [
    "random:pf/%d" % seed for seed in range(50)
]

# recorded before the plan graph of synthesis was folded into one
# read-or-call step
SYNTHESIS_GOLDEN = {
    "fixture:g1-recursive": "764b048934aea8f9",
    "fixture:g1c-undominated": "217633b097add263",
    "fixture:g2-regular-not-sreg": "9199a2cb6fd4807b",
    "fixture:g2c-undominated": "cf2d3e8993da25fa",
    "fixture:sandbox": "8773f905f586eca5",
    "random:pf/0": "a4f3999a5748d8b8",
    "random:pf/1": "cb0494f2d77ee711",
    "random:pf/2": "f33ff84eb3d19e7f",
    "random:pf/3": "4b8b2b124398e9d2",
    "random:pf/4": "af5d66585b172a2d",
    "random:pf/5": "ac7051440b5f78b5",
    "random:pf/6": "41b2350202623c46",
    "random:pf/7": "2e4220faea88eadb",
    "random:pf/8": "22077dbc251b6c7c",
    "random:pf/9": "2dc2ff975398b669",
    "random:pf/10": "1323281b7df52fa9",
    "random:pf/11": "a834c967d7246584",
    "random:pf/12": "1c541adc48f13bd0",
    "random:pf/13": "075da3292d58f92d",
    "random:pf/14": "35ba9eafed1c836d",
    "random:pf/15": "b7b4077006c83ce6",
    "random:pf/16": "0c576b63b17cee17",
    "random:pf/17": "d531183cbdf92b24",
    "random:pf/18": "f47375a120df72d4",
    "random:pf/19": "d4a30df1fea35b80",
    "random:pf/20": "ba8f3619d20be142",
    "random:pf/21": "ae1f8ba5f0dfe354",
    "random:pf/22": "7ca004769b807a0e",
    "random:pf/23": "4a7b1d4fe6486bfe",
    "random:pf/24": "f10f43e7e47fe5ca",
    "random:pf/25": "ac8403d1d491e370",
    "random:pf/26": "6aa0ddc65fb454e8",
    "random:pf/27": "cb0494f2d77ee711",
    "random:pf/28": "42c67b271d32158d",
    "random:pf/29": "e988f5c12c88cb03",
    "random:pf/30": "e988f5c12c88cb03",
    "random:pf/31": "e988f5c12c88cb03",
    "random:pf/32": "c615e36fb59c4b8f",
    "random:pf/33": "990730021dc302ba",
    "random:pf/34": "f7fce728155f5e8c",
    "random:pf/35": "ac900e5bda9b0108",
    "random:pf/36": "95304643078f5c9f",
    "random:pf/37": "f65fa205882dece9",
    "random:pf/38": "4fec64964f1283b5",
    "random:pf/39": "2e4220faea88eadb",
    "random:pf/40": "4b6af461ca6ff5a5",
    "random:pf/41": "2ed75818d01877fc",
    "random:pf/42": "708d30dda4ce794b",
    "random:pf/43": "26a5b127baeb3cb6",
    "random:pf/44": "f4d0ad466daa3e57",
    "random:pf/45": "ef4d70de0951e461",
    "random:pf/46": "9d01df6b37a186e7",
    "random:pf/47": "cb0494f2d77ee711",
    "random:pf/48": "2e4220faea88eadb",
    "random:pf/49": "2a51fd07fa86dac4",
}


@pytest.mark.parametrize("case", SYNTHESIS_CASES)
def test_synthesis_digest_golden(case):
    assert synthesis_digest(case) == SYNTHESIS_GOLDEN[case]


# Larger games pin the choice maps past what the 4-state cases reach.
# The pf6 and pf7 digests were recorded before the effect fixpoint solved
# each scan graph for every target set at once, the pf8 ones and pf10/1002
# before online pruning cut round 1's subsets up to simulation, and the
# other pf10 ones before synthesis carried effect sets as bitmasks.
LARGE_SYNTHESIS_GOLDEN = {
    "random:pf6/1000": "aac3ab5b7534ba4b",
    "random:pf6/1001": "129b3b0a12513d8d",
    "random:pf6/1002": "0aa881e0115f6f0a",
    "random:pf6/1003": "899d62a4d4f7d377",
    "random:pf6/1004": "ef3e15681c1f282d",
    "random:pf6/1005": "6174e472f45da072",
    "random:pf6/1006": "70c0dcbae80a3426",
    "random:pf6/1007": "d1fa7bafe1ca2fb4",
    "random:pf6/1008": "4fa546062e471b88",
    "random:pf6/1009": "37d6c349ded4322d",
    "random:pf6/1010": "c1a007c5c9f53012",
    "random:pf6/1011": "df94269fd6de0c15",
    "random:pf6/1012": "5eb28891900f1ae3",
    "random:pf6/1013": "5c24b40009a6423c",
    "random:pf6/1014": "b309b5fcfc727b5c",
    "random:pf6/1015": "4411a0db8c750ec6",
    "random:pf6/1016": "aac562badff77daf",
    "random:pf6/1017": "0a611e62787172c1",
    "random:pf6/1018": "17a154a8cc06c5cd",
    "random:pf6/1019": "3bf120d9f723a296",
    "random:pf6/1020": "8111d450db1a67e1",
    "random:pf6/1021": "88f485a02ee809d4",
    "random:pf6/1022": "d6dd1a34d52d777d",
    "random:pf6/1023": "54fab2c3acc1082c",
    "random:pf6/1024": "9c5678d9de46e7d8",
    "random:pf6/1025": "6024054049e39a22",
    "random:pf6/1026": "6156d8af3a762d1d",
    "random:pf6/1027": "bdbc200acd3685df",
    "random:pf7/1000": "b7af7a4043554e79",
    "random:pf7/1001": "cd58e16190dff20f",
    "random:pf7/1002": "3a2927d311375961",
    "random:pf7/1003": "62ae78224d32138f",
    "random:pf7/1004": "49cf8f7827aa12e5",
    "random:pf7/1005": "26991eaae8300c80",
    "random:pf7/1006": "a584b9bb312431d0",
    "random:pf7/1007": "cc2f7359e2add3d2",
    "random:pf7/1008": "328d217f6243103e",
    "random:pf7/1009": "900680e03f52c9f4",
    "random:pf8/1000": "bd4b5160b6cf7f30",
    "random:pf8/1001": "6e78b125d2776ce0",
    "random:pf8/1002": "0cca21b97e208684",
    "random:pf8/1003": "2c223b63792bbf4f",
    "random:pf8/1004": "4369f271616195a8",
    "random:pf8/1005": "5b0dd188a1e9bd26",
    "random:pf10/1002": "19279ded7afe4fc9",
    "random:pf10/1003": "84935ad5924bc9e2",
    "random:pf10/1004": "07228df8561c9385",
    "random:pf10/1005": "34d1498659007861",
    "random:pf10/1007": "c18c876e88522927",
    "random:pf10/1008": "8783c58c1c9aef3d",
    "random:pf10/1009": "2853852c63057d36",
}


@pytest.mark.parametrize("case", sorted(LARGE_SYNTHESIS_GOLDEN))
def test_large_synthesis_digest_golden(case):
    assert synthesis_digest(case) == LARGE_SYNTHESIS_GOLDEN[case]


# Online pruning of the NE subset automaton on the synthesis benchmark
# games: the keep-sets of the pruning rounds and the pruned DFA.  These
# instances have up to a few dozen states with many choices, well past
# what the 4-state games above reach.

PRUNING_PARAMS = {
    "alphabet": 3,
    "target_states": 6,
    "rule_length": 3,
    "constraints": ["prefix_free", "finite_replacement"],
}


def pruning_digest(seed):
    game = random_game(PRUNING_PARAMS, seed)
    ne = build_ne(game, effect_fixpoint(game))
    inst = OnlineInstance(ne.nfa)
    keep = _pruned_transitions(inst)
    # the round-1 cut to inclusion-minimal effect sets keeps the same sets
    masks = [_bitmask(members) for members in ne.subsets]
    assert _pruned_transitions(inst, masks) == keep
    digest = hashlib.sha256()
    for text in (
        json.dumps([[q, a, sorted(t)] for (q, a), t in sorted(keep.items())]),
        json.dumps(dfa_to_dict(prune_weakly_dominant(inst))),
    ):
        digest.update(text.encode("utf-8") + b"\0")
    return digest.hexdigest()[:16]


# recorded before the pruning rounds shared one subset graph
PRUNING_GOLDEN = {
    1000: "7b2fbdddd20c5081",
    1001: "87344bac06aa5cc5",
    1002: "4a595cb5990b91ef",
    1003: "328d08e8eafbe3fc",
    1004: "627bb427483ce148",
    1005: "c103b666443c7f1b",
    1006: "c373875b9655cbf1",
    1007: "ed31b509730a22a3",
    1008: "3da2bbe328639f09",
    1009: "47d7f9f557746ae6",
    1010: "0682a303d21c3692",
    1011: "9063fa8d7aedc0ea",
    1012: "258612fd3f12edac",
    1013: "55c3cc97a80dae8d",
    1014: "f2c1085b64d3d1e8",
    1015: "cb52d1fa555936a4",
    1016: "87e8b0757d571c93",
    1017: "17894619a5153dbd",
    1018: "cb347b52705b0f76",
    1019: "019342877d88908d",
    1020: "df3d0ce45ffba04d",
    1021: "d1b8d0b14a752bc8",
    1022: "06083790e44bb6aa",
    1023: "a96e3305f28b76d4",
    1024: "007e937001362549",
    1025: "ab1b3a1fc78c6fe1",
    1026: "7c936c22c97fd6ae",
    1027: "296166d0b6d8ea29",
}


@pytest.mark.parametrize("seed", sorted(PRUNING_GOLDEN))
def test_pruning_digest_golden(seed):
    assert pruning_digest(seed) == PRUNING_GOLDEN[seed]


# Reroute sets found by the depth-first sreg search: every criterion-05
# formula, and random games with three seeded words each.  Any pruning of
# the search must keep the first winner in search order.


def _sreg_digest(instances):
    digest = hashlib.sha256()
    for game, word in instances:
        found = exists_winning_sreg(game, word, mode="dfs")
        reroutes = None if found is None else sorted(found.reroutes)
        digest.update(json.dumps(reroutes).encode("utf-8") + b"\0")
    return digest.hexdigest()[:16]


def _sreg_formula_instances():
    for phi in small_formulas(1) + small_formulas(2):
        yield from_3sat(phi)


def _sreg_random_instances():
    for seed in range(300):
        rng = random.Random(seed)
        params = {
            "alphabet": rng.randint(2, 3),
            "target_states": rng.randint(2, 5),
            "rule_length": rng.randint(1, 3),
        }
        if seed % 2:
            params["constraints"] = ["finite_replacement"]
        game = random_game(params, seed)
        for _ in range(3):
            length = rng.randint(0, 6)
            yield game, tuple(rng.choice(game.alphabet) for _ in range(length))


# recorded before the search cut subtrees that cannot win
SREG_FORMULA_GOLDEN = "91a386c81fa0db5d"
SREG_RANDOM_GOLDEN = "b2b2a0d500c40ce9"


def test_sreg_formula_reroutes_golden():
    assert _sreg_digest(_sreg_formula_instances()) == SREG_FORMULA_GOLDEN


def test_sreg_random_reroutes_golden():
    assert _sreg_digest(_sreg_random_instances()) == SREG_RANDOM_GOLDEN


# The reductions' files: the universality game and both strategies of each
# NFA, and every from_3sat game and word over the criterion-05 formulas.
# The NFAs cover two initial states, an unreachable state and one that
# rejects the empty word (the sandbox fallback).

GENERATOR_NFAS = {
    "kth:%d/%s" % (k, universal): kth_from_last_nfa(k, universal)
    for k in range(1, 9)
    for universal in (False, True)
}
GENERATOR_NFAS["two-initials"] = Nfa(
    3,
    ("0", "1"),
    {(0, "0"): {1}, (1, "1"): {2}, (2, "0"): {0, 2}, (2, "1"): {1}},
    {0, 2},
    {0, 1},
)
GENERATOR_NFAS["unreachable"] = Nfa(
    4,
    ("0", "1"),
    {(0, "0"): {0}, (0, "1"): {2}, (2, "0"): {0}, (1, "0"): {3}, (3, "1"): {0}},
    {0},
    {0, 3},
)
GENERATOR_NFAS["rejects-eps"] = Nfa(2, ("0", "1"), {(0, "0"): {1}, (1, "1"): {0}}, {0}, {1})


def _generator_texts(case):
    if case == "3sat":
        for phi in small_formulas(1) + small_formulas(2):
            game, word = from_3sat(phi)
            yield dump_game(game)
            yield json.dumps(word)
        return
    game, a1, a2 = from_nfa_universality(GENERATOR_NFAS[case])
    yield dump_game(game)
    yield dump_strategy(a1)
    yield dump_strategy(a2)


def generator_digest(case):
    digest = hashlib.sha256()
    for text in _generator_texts(case):
        digest.update(text.encode("utf-8") + b"\0")
    return digest.hexdigest()[:16]


# recorded before _normalize_nfa merged initial states into a fresh int state
GENERATOR_GOLDEN = {
    "kth:1/False": "265960bc9a3d678c",
    "kth:1/True": "e543671cb045cd6d",
    "kth:2/False": "18dc3a99d4c36e0e",
    "kth:2/True": "b3298967e107a576",
    "kth:3/False": "f10758dfe87e68ba",
    "kth:3/True": "30b2887fa658983d",
    "kth:4/False": "c8c9f55ab7a4af5c",
    "kth:4/True": "8d595105fa6fd715",
    "kth:5/False": "f05307f27d133c4d",
    "kth:5/True": "ef6e268a8875c23e",
    "kth:6/False": "c54238484b9a5128",
    "kth:6/True": "ff99e81cca8c6d5e",
    "kth:7/False": "1d3a5aa604210009",
    "kth:7/True": "4b86fb7f6ce11246",
    "kth:8/False": "7bff949d1bab72cf",
    "kth:8/True": "05ef827ca0a09e5f",
    "two-initials": "048a9924ac186140",
    "unreachable": "a7fbeff7840796ea",
    "rejects-eps": "4122fb7f1330cf51",
    "3sat": "12f5c1137a69ba6e",
}


@pytest.mark.parametrize("case", sorted(GENERATOR_NFAS) + ["3sat"])
def test_generator_digest_golden(case):
    assert generator_digest(case) == GENERATOR_GOLDEN[case]


# The subset construction of both losing NFAs of the universality games,
# whose wide alphabets hold many symbols that act alike: the DFA's
# numbering and accepting states, hashed per game and variant.

DETERMINIZE_CASES = ["kth:%d/%s" % (k, u) for k in range(2, 10) for u in (False, True)]


def determinize_digest(case):
    k, universal = case[4:].split("/")
    game, a1, a2 = from_nfa_universality(kth_from_last_nfa(int(k), universal == "True"))
    digest = hashlib.sha256()
    for strategy in (a1, a2):
        text = json.dumps(dfa_to_dict(determinize(losing_nfa(game, strategy))))
        digest.update(text.encode("utf-8") + b"\0")
    return digest.hexdigest()[:16]


# recorded before determinize stepped one symbol per class
DETERMINIZE_GOLDEN = {
    "kth:2/False": "ad16826f15035201",
    "kth:2/True": "4430521486b802e1",
    "kth:3/False": "4165df020ce21f6e",
    "kth:3/True": "fe2ee2c7b38000a5",
    "kth:4/False": "ca3d1a48df8f36f0",
    "kth:4/True": "69ee19255433b3ce",
    "kth:5/False": "f383378621e4e9df",
    "kth:5/True": "165fbac59db520ad",
    "kth:6/False": "bc2a8df6ac701637",
    "kth:6/True": "fa6331c98f4f8747",
    "kth:7/False": "202c48347dc16c49",
    "kth:7/True": "ea9cdbe320abae20",
    "kth:8/False": "918ede25d872e2bc",
    "kth:8/True": "394ec13b41d96c08",
    "kth:9/False": "9028043b29c75b6e",
    "kth:9/True": "048bc72b5bee6185",
}


@pytest.mark.parametrize("case", DETERMINIZE_CASES)
def test_determinize_digest_golden(case):
    assert determinize_digest(case) == DETERMINIZE_GOLDEN[case]
