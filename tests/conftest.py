import random

import pytest
from hypothesis import strategies as st

from cfgame.automata import Dfa, Nfa
from cfgame.generators import random_game
from cfgame.online import OnlineInstance
from cfgame.play import GeneralStrategy

# shared corpus for the randomized acceptance sweeps: small games whose
# replacement languages are finite, paired with random history automata
CORPUS_SIZE = 500
CORPUS_PARAMS = {
    "constraints": ["finite_replacement"],
    "alphabet": 3,
    "target_states": 4,
    "rule_length": 3,
}


def random_nfa(rng, max_states=3):
    n = rng.randint(1, max_states)
    transitions = {}
    for q in range(n):
        for a in ("0", "1"):
            hits = [p for p in range(n) if rng.random() < 0.55]
            if hits:
                transitions[(q, a)] = set(hits)
    initials = {0}
    accepting = {q for q in range(n) if rng.random() < 0.6}
    return Nfa(n, ("0", "1"), transitions, initials, accepting)


def kth_from_last_nfa(k, universal):
    """Words over 0/1 shorter than k, and those whose k-th symbol from the
    end is 1 (or either bit, when universal: then every word)."""
    chains = [range(1 + j * k, 1 + (j + 1) * k) for j in range(3 if universal else 2)]
    transitions = {(0, "0"): {0}, (0, "1"): {0}}
    for chain in chains:
        for p in chain[:-1]:
            transitions[(p, "0")] = transitions[(p, "1")] = {p + 1}
    for bit, chain in zip("10", chains[1:]):
        transitions[(0, bit)].add(chain[0])
    accepting = set(chains[0]) | {chain[-1] for chain in chains[1:]}
    return Nfa(1 + len(chains) * k, ("0", "1"), transitions, {0, 1}, accepting)


FIVE_SYMBOLS = ("a", "b", "c", "d", "e")


@st.composite
def templated_nfas(draw, max_states=4):
    """NFAs over FIVE_SYMBOLS whose columns are copies of 2 or 3 drawn
    templates, so that classes of symbols that act alike have members."""
    n = draw(st.integers(1, max_states))
    column = st.lists(st.sets(st.integers(0, n - 1)), min_size=n, max_size=n)
    templates = draw(st.lists(column, min_size=2, max_size=3))
    transitions = {}
    for a in FIVE_SYMBOLS:
        template = draw(st.sampled_from(templates))
        transitions.update({(q, a): template[q] for q in range(n)})
    initials = draw(st.sets(st.integers(0, n - 1), min_size=1))
    accepting = draw(st.sets(st.integers(0, n - 1)))
    return Nfa(n, FIVE_SYMBOLS, transitions, initials, accepting)


def random_online_instance(rng, max_states=3):
    n = rng.randint(1, max_states)
    transitions = {}
    for q in range(n):
        for a in ("0", "1"):
            count = rng.randint(1, n)
            transitions[(q, a)] = set(rng.sample(range(n), count))
    accepting = {q for q in range(n) if rng.random() < 0.5}
    return OnlineInstance(Nfa(n, ("0", "1"), transitions, {0}, accepting))


def random_regular_strategy(game, rng, max_states=3):
    n = rng.randint(1, max_states)
    alphabet = game.hist_alphabet
    transitions = {(q, a): rng.randrange(n) for q in range(n) for a in alphabet}
    accepting = {q for q in range(n) if rng.random() < 0.4}
    return GeneralStrategy(Dfa(n, alphabet, transitions, 0, accepting))


@pytest.fixture(scope="session")
def game_corpus():
    pairs = []
    for seed in range(CORPUS_SIZE):
        game = random_game(CORPUS_PARAMS, seed)
        rng = random.Random(10_000 + seed)
        pairs.append((game, random_regular_strategy(game, rng)))
    return pairs
