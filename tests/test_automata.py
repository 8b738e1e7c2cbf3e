from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from cfgame.automata import (
    Dfa,
    Nfa,
    RegexSyntaxError,
    SubsetView,
    all_words_upto,
    coaccessible_states,
    compare_shortlex,
    complement,
    determinize,
    dfa_from_dict,
    enumerate_upto,
    equivalent,
    is_prefix_free,
    language_is_finite,
    minimize,
    nfa_from_dict,
    parse_regex,
    regex_symbols,
    regex_to_nfa,
    regex_to_text,
    residual_order,
    shortlex_min_word,
    subset_witness,
    to_dot,
)
from oracles import (
    ast_language,
    brute_language,
    brute_min_symdiff,
    brute_prefix_violation,
    dfa_prefix_free,
    finite_language,
    live_states,
    nerode_is_minimal,
    residual_cmp,
    words_upto,
)

ALPHABET = ("a", "b")


def regex_asts(alphabet=ALPHABET):
    leaf = st.builds(lambda s: ("sym", s), st.sampled_from(alphabet))
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.tuples(st.just("cat"), inner, inner),
            st.tuples(st.just("alt"), inner, inner),
            st.tuples(st.just("star"), inner),
        ),
        max_leaves=6,
    )


@st.composite
def dfas(draw, alphabet=ALPHABET, max_states=4):
    n = draw(st.integers(1, max_states))
    transitions = {
        (q, a): draw(st.integers(0, n - 1)) for q in range(n) for a in alphabet
    }
    accepting = draw(st.sets(st.integers(0, n - 1)))
    return Dfa(n, alphabet, transitions, 0, accepting)


@st.composite
def nfas(draw, alphabet=ALPHABET, max_states=4):
    n = draw(st.integers(1, max_states))
    transitions = {}
    for q in range(n):
        for a in alphabet:
            targets = draw(st.sets(st.integers(0, n - 1)))
            if targets:
                transitions[(q, a)] = targets
    initials = draw(st.sets(st.integers(0, n - 1), min_size=1))
    accepting = draw(st.sets(st.integers(0, n - 1)))
    return Nfa(n, alphabet, transitions, initials, accepting)


# -- parsing ---------------------------------------------------------------


@pytest.mark.parametrize(
    "text,ast",
    [
        ("a", ("sym", "a")),
        ("ab", ("cat", ("sym", "a"), ("sym", "b"))),
        ("aba", ("cat", ("cat", ("sym", "a"), ("sym", "b")), ("sym", "a"))),
        ("a+b", ("alt", ("sym", "a"), ("sym", "b"))),
        ("a+b+a", ("alt", ("alt", ("sym", "a"), ("sym", "b")), ("sym", "a"))),
        ("(a+b)*", ("star", ("alt", ("sym", "a"), ("sym", "b")))),
        ("a*b", ("cat", ("star", ("sym", "a")), ("sym", "b"))),
        ("a**", ("star", ("star", ("sym", "a")))),
        (" a b ", ("cat", ("sym", "a"), ("sym", "b"))),
        ('a"xy"', ("cat", ("sym", "a"), ("sym", "xy"))),
        ('"(0,2)"', ("sym", "(0,2)")),
        ("ab+b", ("alt", ("cat", ("sym", "a"), ("sym", "b")), ("sym", "b"))),
    ],
)
def test_parse_regex(text, ast):
    assert parse_regex(text) == ast


@pytest.mark.parametrize(
    "text",
    ["", "   ", "()", "(a", "a)", "+a", "a+", "*", "a(", '"ab', '""', "(+)"],
)
def test_parse_regex_rejects(text):
    with pytest.raises(RegexSyntaxError):
        parse_regex(text)


@given(regex_asts())
def test_regex_text_round_trip(ast):
    assert parse_regex(regex_to_text(ast)) == ast


@given(regex_asts())
def test_regex_symbols_and_nullable(ast):
    lang = ast_language(ast, 4)
    assert (() in lang) == (0 in regex_to_nfa(ast, ALPHABET).accepting)
    used = set()
    for w in lang:
        used.update(w)
    # every reported symbol can be forced to appear at some length
    assert used <= regex_symbols(ast)


# -- compilation -----------------------------------------------------------


@given(regex_asts())
@settings(max_examples=150)
def test_glushkov_matches_ast_semantics(ast):
    nfa = regex_to_nfa(ast, ALPHABET)
    dfa = determinize(nfa)
    expected = ast_language(ast, 5)
    assert brute_language(dfa.accepts, ALPHABET, 5) == expected
    assert brute_language(nfa.accepts, ALPHABET, 5) == expected


@given(nfas())
def test_subset_view_exhausted_breadth_first_is_determinize(nfa):
    view = SubsetView(nfa)
    transitions = {}
    for i, subset in enumerate(view.subsets):  # grows while walked
        assert view.index[subset] == i
        for a in ALPHABET:
            transitions[(i, a)] = view.step(i, a)
    dfa = determinize(nfa)
    assert transitions == dfa.transitions
    assert {i for i in range(len(view.subsets)) if view.accepts(i)} == dfa.accepting


@given(nfas())
def test_determinize_preserves_language(nfa):
    dfa = determinize(nfa)
    for w in words_upto(ALPHABET, 5):
        assert dfa.accepts(w) == nfa.accepts(w)


@given(dfas())
def test_minimize_preserves_language_and_is_minimal(dfa):
    small = minimize(dfa)
    for w in words_upto(ALPHABET, 5):
        assert small.accepts(w) == dfa.accepts(w)
    assert nerode_is_minimal(small)
    assert small.n_states <= dfa.n_states


@given(dfas())
def test_minimize_is_canonical(dfa):
    small = minimize(dfa)
    assert minimize(small) == small
    # a structurally different automaton for the same language lands on the
    # same canonical form: here the states numbered the other way round
    last = dfa.n_states - 1
    renumbered = Dfa(
        dfa.n_states,
        ALPHABET,
        {(last - q, a): last - t for (q, a), t in dfa.transitions.items()},
        last - dfa.initial,
        {last - q for q in dfa.accepting},
    )
    assert minimize(renumbered) == small


def quotient_bfs_minimize(dfa):
    """Moore blocks of the reachable states, numbered by a breadth-first
    search of the quotient from the initial block in alphabet order."""
    reachable = [dfa.initial]
    for q in reachable:
        for a in dfa.alphabet:
            if dfa.transitions[(q, a)] not in reachable:
                reachable.append(dfa.transitions[(q, a)])
    block = {q: q in dfa.accepting for q in reachable}
    while True:
        ids = {}
        refined = {
            q: ids.setdefault(
                (block[q], *[block[dfa.transitions[(q, a)]] for a in dfa.alphabet]),
                len(ids),
            )
            for q in reachable
        }
        if len(ids) == len(set(block.values())):
            break
        block = refined
    rep = {}
    for q in reachable:
        rep.setdefault(block[q], q)
    numbering = {block[dfa.initial]: 0}
    queue = deque([block[dfa.initial]])
    while queue:
        q = rep[queue.popleft()]
        for a in dfa.alphabet:
            b = block[dfa.transitions[(q, a)]]
            if b not in numbering:
                numbering[b] = len(numbering)
                queue.append(b)
    transitions = {
        (numbering[b], a): numbering[block[dfa.transitions[(rep[b], a)]]]
        for b in numbering
        for a in dfa.alphabet
    }
    accepting = {numbering[b] for b in numbering if rep[b] in dfa.accepting}
    return Dfa(len(numbering), dfa.alphabet, transitions, 0, accepting)


@given(dfas(max_states=6))
def test_minimize_numbers_blocks_by_a_bfs_of_the_quotient(dfa):
    assert minimize(dfa) == quotient_bfs_minimize(dfa)


@given(regex_asts())
def test_equivalent_asts_minimize_identically(ast):
    doubled = ("alt", ast, ast)
    d1 = minimize(determinize(regex_to_nfa(ast, ALPHABET)))
    d2 = minimize(determinize(regex_to_nfa(doubled, ALPHABET)))
    assert d1 == d2


# -- boolean operations ----------------------------------------------------


@given(dfas())
def test_products_and_complement(d1):
    comp = complement(d1)
    for w in words_upto(ALPHABET, 4):
        assert comp.accepts(w) != d1.accepts(w)


@given(dfas(), dfas())
@settings(deadline=None, max_examples=60)
def test_subset_and_witness(d1, d2):
    bound = d1.n_states * d2.n_states
    w = subset_witness(d1, d2)
    brute = None
    for cand in words_upto(ALPHABET, bound):
        if d1.accepts(cand) and not d2.accepts(cand):
            brute = cand
            break
    assert w == brute


@given(dfas(), dfas())
@settings(deadline=None, max_examples=60)
def test_compare_shortlex_against_enumeration(d1, d2):
    bound = d1.n_states * d2.n_states
    cmp_result, witness = compare_shortlex(d1, d2)
    brute = brute_min_symdiff(d1.accepts, d2.accepts, ALPHABET, bound)
    if brute is None:
        assert cmp_result == 0 and witness is None
        assert equivalent(d1, d2)
    else:
        assert witness == brute
        if d1.accepts(witness):
            assert cmp_result == 1
        else:
            assert cmp_result == -1


@st.composite
def residual_queries(draw):
    """An NFA with 1-7 states over 2-3 symbols, and every ordered pair of
    its states in a drawn order, some of them asked twice."""
    alphabet = ("a", "b", "c")[: draw(st.integers(2, 3))]
    nfa = draw(nfas(alphabet=alphabet, max_states=7))
    pairs = [(p, q) for p in range(nfa.n_states) for q in range(nfa.n_states)]
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    return nfa, draw(st.permutations(pairs + repeats))


@given(residual_queries())
@settings(deadline=None, max_examples=300)
def test_residual_order_matches_pair_search(query):
    # one cmp answers every question, so proofs of equality made by
    # earlier questions serve the later ones
    nfa, pairs = query
    cmp = residual_order(nfa)
    for p, q in pairs:
        expected = residual_cmp(nfa.transitions, nfa.accepting, nfa.alphabet, p, q)
        assert cmp(p, q) == expected, (p, q)


def test_residual_order_forgets_the_unions_of_an_unequal_comparison():
    # the search from ({0}, {1}) unions ({0}, {1}) and ({2}, {3}) before
    # ({4}, {5}) tells "aa" apart; those unions must not outlive it
    transitions = {(0, "a"): {2}, (1, "a"): {3}, (2, "a"): {4}, (3, "a"): {5}}
    cmp = residual_order(Nfa(6, ("a",), transitions, (), {4}))
    assert cmp(0, 1) == 1
    assert cmp(2, 3) == 1
    assert cmp(1, 0) == -1


class _CountedAccepting(frozenset):
    """Accepting states that count the acceptance tests of a search."""

    tests = 0

    def isdisjoint(self, other):
        _CountedAccepting.tests += 1
        return frozenset.isdisjoint(self, other)


def test_residual_order_answers_each_pair_of_classes_once(monkeypatch):
    # L(0) = L(2) = {a} and L(1) is empty
    transitions = {(0, "a"): {3}, (1, "a"): {4}, (2, "a"): {3}}
    nfa = Nfa(5, ("a",), transitions, (), {3})
    nfa.accepting = _CountedAccepting(nfa.accepting)
    cmp = residual_order(nfa)
    assert cmp(0, 2) == 0  # joins the classes of {0} and {2}
    assert cmp(0, 1) == 1
    stepped = []
    step_set = Nfa.step_set

    def counted(self, states, symbol):
        stepped.append(symbol)
        return step_set(self, states, symbol)

    monkeypatch.setattr(Nfa, "step_set", counted)
    monkeypatch.setattr(_CountedAccepting, "tests", 0)
    # the repeat, its mirror, and questions about {2}, proven equal to
    # {0}, are answered without a search; the step memo alone would
    # spare the steps of a repeated search but not its acceptance tests
    assert [cmp(0, 1), cmp(1, 0), cmp(2, 1), cmp(1, 2), cmp(2, 0)] == [1, -1, 1, -1, 0]
    assert stepped == []
    assert _CountedAccepting.tests == 0


@given(dfas())
def test_strict_subset_is_shortlex_smaller(dfa):
    # dropping any accepted word makes the language shortlex smaller
    word = shortlex_min_word(dfa)
    if word is None:
        return
    # states (q, i): q a state of dfa, i the length of the prefix of word
    # read so far, or n + 1 once the input has left word
    n = len(word)
    pairs = [(q, i) for q in range(dfa.n_states) for i in range(n + 2)]
    index = {pair: k for k, pair in enumerate(pairs)}
    smaller = Dfa(
        len(pairs),
        ALPHABET,
        {
            (index[(q, i)], a): index[
                (dfa.transitions[(q, a)], i + 1 if i < n and word[i] == a else n + 1)
            ]
            for q, i in pairs
            for a in ALPHABET
        },
        index[(dfa.initial, 0)],
        {index[(q, i)] for q, i in pairs if q in dfa.accepting and i != n},
    )
    cmp_result, witness = compare_shortlex(smaller, dfa)
    assert cmp_result == -1
    assert witness == word


# -- queries ---------------------------------------------------------------


@given(dfas())
def test_shortlex_min_word(dfa):
    got = shortlex_min_word(dfa)
    brute = None
    for w in words_upto(ALPHABET, dfa.n_states):
        if dfa.accepts(w):
            brute = w
            break
    assert got == brute


@given(dfas())
def test_language_is_finite(dfa):
    n = dfa.n_states
    pumped = [
        w
        for w in words_upto(ALPHABET, 2 * n - 1)
        if len(w) >= n and dfa.accepts(w)
    ]
    assert language_is_finite(dfa) == (not pumped)


@given(dfas())
def test_is_prefix_free(dfa):
    flag, witness = is_prefix_free(dfa)
    violation = brute_prefix_violation(
        brute_language(dfa.accepts, ALPHABET, 2 * dfa.n_states)
    )
    assert flag == (violation is None)
    if witness is not None:
        u, v = witness
        assert v
        assert dfa.accepts(u)
        assert dfa.accepts(u + v)
        # both parts are the shortlex least candidates
        extensions = words_upto(ALPHABET, dfa.n_states)[1:]
        assert u == next(
            w
            for w in words_upto(ALPHABET, dfa.n_states)
            if dfa.accepts(w) and any(dfa.accepts(w + x) for x in extensions)
        )
        assert v == next(x for x in extensions if dfa.accepts(u + x))


@given(dfas())
def test_closure_and_finiteness_match_oracles(dfa):
    assert coaccessible_states(dfa) == live_states(dfa)
    words = finite_language(dfa)
    assert language_is_finite(dfa) == (words is not None)
    if words is not None:
        assert enumerate_upto(dfa, dfa.n_states) == words
    assert is_prefix_free(dfa)[0] == dfa_prefix_free(dfa)


@pytest.mark.parametrize("cyclic", [False, True])
def test_language_is_finite_long_chain(cyclic):
    # 3,000 states in a row: a recursive search would overflow the stack
    n = 3000
    transitions = {(q, a): min(q + 1, n - 1) for q in range(n) for a in ALPHABET}
    if cyclic:
        transitions[(n - 1, ALPHABET[0])] = 0
    dfa = Dfa(n, ALPHABET, transitions, 0, {n - 2})
    assert language_is_finite(dfa) == (not cyclic)


@given(dfas(), st.integers(0, 4))
def test_enumerate_upto_dfa(dfa, max_len):
    got = enumerate_upto(dfa, max_len)
    assert set(got) == brute_language(dfa.accepts, ALPHABET, max_len)
    assert got == sorted(got, key=lambda w: (len(w), w))


@given(nfas(), st.integers(0, 4))
def test_enumerate_upto_nfa(nfa, max_len):
    got = enumerate_upto(nfa, max_len)
    assert set(got) == brute_language(nfa.accepts, ALPHABET, max_len)


def test_all_words_upto_counts():
    words = list(all_words_upto(("x", "y"), 3))
    assert len(words) == 1 + 2 + 4 + 8
    assert words[0] == ()
    assert len(set(words)) == len(words)


# -- construction and export ----------------------------------------------


def test_dfa_validation():
    with pytest.raises(ValueError):
        Dfa(2, ALPHABET, {(0, "a"): 1}, 0, set())
    with pytest.raises(ValueError):
        Dfa(1, ALPHABET, {(0, "a"): 0, (0, "b"): 0}, 1, set())
    with pytest.raises(ValueError):
        Dfa(1, ALPHABET, {(0, "a"): 0, (0, "b"): 0}, 0, {3})
    with pytest.raises(ValueError):
        Dfa(
            1,
            ALPHABET,
            {(0, "a"): 0, (0, "b"): 0, (1, "a"): 0},
            0,
            set(),
        )


def test_to_dot_smoke():
    transitions = {(0, "a"): 1, (0, "b"): 2, (1, "a"): 2, (1, "b"): 0}
    transitions.update({(2, "a"): 2, (2, "b"): 2})
    dfa = Dfa(3, ALPHABET, transitions, 0, {1})
    dot = to_dot(dfa, name="sample")
    assert dot.startswith("digraph sample {")
    assert "doublecircle" in dot
    assert dot.rstrip().endswith("}")
    nfa = Nfa(2, ALPHABET, {(0, "a"): {0, 1}}, {0}, {1})
    assert "0 -> 1" in to_dot(nfa)


@pytest.mark.parametrize("reader", [dfa_from_dict, nfa_from_dict])
@pytest.mark.parametrize(
    "field, value, error",
    [
        ("alphabet", [0, "a"], "alphabet entry 0 is not a string"),
        ("alphabet", [["a"], "a"], "alphabet entry ['a'] is not a string"),
        ("alphabet", ["a", "a"], "duplicate symbols in alphabet: 'a'"),
        ("states", 1.5, "states must be a non-negative int, got 1.5"),
        ("states", True, "states must be a non-negative int, got True"),
        ("states", -1, "states must be a non-negative int, got -1"),
        ("initial", True, "initial state True is not an int in range(1)"),
        ("initial", 1, "initial state 1 is not an int in range(1)"),
        ("accepting", [True], "accepting state True is not an int in range(1)"),
        ("accepting", [0.0], "accepting state 0.0 is not an int in range(1)"),
        ("accepting", 0, "accepting must be a list, got 0"),
        ("transitions", [[0.0, "a", 0]], "transition source 0.0 is not an int in range(1)"),
        ("transitions", [[[0], "a", 0]], "transition source [0] is not an int in range(1)"),
        ("transitions", [[0, "a", 0.0]], "transition target 0.0 is not an int in range(1)"),
        ("transitions", [[0, "a", 7]], "transition target 7 is not an int in range(1)"),
        ("transitions", [[0, "a", 0], [0, "b", 0]], "transition on unknown symbol 'b'"),
        ("transitions", [[0, ["a"], 0]], "transition on unknown symbol ['a']"),
    ],
)
def test_automaton_readers_check_the_alphabet_and_the_state_count(
    reader, field, value, error
):
    data = {
        "alphabet": ["a"],
        "states": 1,
        "initial": 0,
        "accepting": [0],
        "transitions": [[0, "a", 0]],
    }
    assert reader(data).n_states == 1
    with pytest.raises(ValueError) as info:
        reader(dict(data, **{field: value}))
    assert str(info.value) == error


def test_nfa_reader_checks_each_initial_state():
    data = {
        "alphabet": ["a"],
        "states": 2,
        "initial": [0, 1],
        "accepting": [1],
        "transitions": [[0, "a", 1]],
    }
    assert nfa_from_dict(data).initials == {0, 1}
    with pytest.raises(ValueError) as info:
        nfa_from_dict(dict(data, initial=[0, False]))
    assert str(info.value) == "initial state False is not an int in range(2)"
    with pytest.raises(ValueError) as info:
        dfa_from_dict(dict(data, initial=[0]))
    assert str(info.value) == "initial state [0] is not an int in range(2)"
