import pytest

from chercomb import chi_equivalent, parse_chi, visible_invariant
from chercomb.equivalence import decode, encode, neighbours, step


def seq(text):
    return parse_chi(text)


def test_identical_sequences():
    a = seq("+d4^0,-d6^0")
    report = chi_equivalent(a, a)
    assert report.status == "equivalent" and report.trace == []


def test_subscript_swap_rule():
    assert chi_equivalent(seq("+d4^0"), seq("-d5^0")).status == "equivalent"
    assert chi_equivalent(seq("-d4^2"), seq("+d5^2")).status == "equivalent"
    assert chi_equivalent(seq("+d4^0"), seq("+d5^0")).status == "inequivalent"


def test_pair_cancellation_rules():
    # (ii) in both orders and signs
    for text in ("+d4^2,+d4^3", "+d4^3,+d4^2", "-d5^2,-d5^3"):
        report = chi_equivalent(seq(text), seq("-o"))
        assert report.status == "equivalent"
    # (iv) for centred symbols
    report = chi_equivalent(seq("+d6^2,+d6^2"), seq(""))
    assert report.status == "equivalent"
    assert {"iv", "v"} >= report.rules_used


def test_schur_equivalence(ctx_e5):
    a = seq("+d4^0,+d4^2,+d4^3,+d4^3,+d4^2,+d4^0,-d6^0,-d5^3,-d5^3,+d5^2,+d5^0")
    b = seq("+d4^0,+d4^0,-d6^0,-d5^3,-d5^3,+d5^2,+d5^0")
    report = chi_equivalent(a, b)
    assert report.status == "equivalent"
    assert report.rules_used == {"ii", "v"}


def test_centred_pair_equivalence():
    a = seq("+d4^0,+d4^0,+d4^0,+d6^2,+d6^2,+d5^2,+d5^0,+d5^0")
    b = seq("+d4^0,+d4^0,+d4^0,+d5^2,+d5^0,+d5^0")
    report = chi_equivalent(a, b)
    assert report.status == "equivalent"
    assert report.rules_used == {"iv", "v"}


def test_all_visible_fast_path():
    a = seq("+d4^0,-d4^0,+d6^0,+d5^0," + ",".join(["+d4^0"] * 12))
    b = seq("-d5^0,+d5^0,+d6^0,-d4^0," + ",".join(["-d5^0"] * 12))
    report = chi_equivalent(a, b, depth=1)  # far beyond BFS reach at this depth
    assert report.status == "equivalent"
    assert report.rules_used <= {"i"}
    state = a
    for step in report.trace:
        assert state[step.position : step.position + 1] == step.before
        state = state[: step.position] + step.after + state[step.position + 1 :]
    assert state == b


def test_inequivalent_with_witness():
    report = chi_equivalent(seq("+d4^0,+d4^0"), seq("+d4^0,-d4^0"))
    assert report.status == "inequivalent"
    assert report.separating_invariant is not None


def test_centred_count_separates():
    report = chi_equivalent(seq("+d6^0"), seq("+d4^0"))
    assert report.status == "inequivalent"


def test_invariant_preserved_by_every_rewrite():
    seeds = [
        seq("+d4^0,+d4^2,+d4^3,-d6^0,+d5^2,+d5^0"),
        seq("-o,o,+d6^2,+d6^2,-d5^3"),
        seq("+d4^0,-d5^0,o"),
    ]
    for state in seeds:
        inv = visible_invariant(state)
        word, max_len = encode(state), len(state) + 2
        for nxt in neighbours(word, max_len):
            assert visible_invariant(decode(nxt)) == inv, step(word, nxt, max_len)


def test_trace_replays_start_to_end():
    a = seq("+d4^0,+d4^2,+d4^3,+d4^3,+d4^2,+d4^0,-d6^0,-d5^3,-d5^3,+d5^2,+d5^0")
    b = seq("+d4^0,+d4^0,-d6^0,-d5^3,-d5^3,+d5^2,+d5^0")
    report = chi_equivalent(a, b)
    state = a
    for step in report.trace:
        width = len(step.before)
        assert state[step.position : step.position + width] == step.before
        state = state[: step.position] + step.after + state[step.position + width :]
    assert state == b


def test_unknown_on_exhausted_budget():
    a = seq("+d4^2")
    b = seq("+d4^3")
    # same (empty) visible invariant but no rewrite connects them quickly
    report = chi_equivalent(a, b, depth=2, max_states=50)
    assert report.status in ("unknown", "inequivalent")
    assert report.status == "unknown"


def test_report_counts_the_search():
    # no search runs when the invariant or the fast path decides
    for a, b in (("+d4^0", "+d5^0"), ("+d4^0", "+d4^0"), ("+d4^0", "-d5^0")):
        report = chi_equivalent(seq(a), seq(b))
        assert (report.states, report.depth) == (0, 0)
    # both starts, then every state discovered until the budget is spent
    report = chi_equivalent(seq("+d4^2"), seq("+d4^3"), depth=1)
    assert (report.status, report.states, report.depth) == ("unknown", 8, 1)
    report = chi_equivalent(seq("+d4^0,+d4^2"), seq("+d4^0,+d4^3"), max_states=500)
    assert report.status == "unknown" and report.states == 501 and report.depth < 8
    # a larger budget pins the discovery order five levels deep
    report = chi_equivalent(seq("+d4^0,+d4^2"), seq("+d4^0,+d4^3"), max_states=20_000)
    assert (report.status, report.states, report.depth) == ("unknown", 20001, 5)
    # the meeting state ends the search inside its first level
    report = chi_equivalent(seq("+d6^2,+d6^2"), seq(""))
    assert report.depth == 0 and report.states > 2 and len(report.trace) == 2


@pytest.mark.parametrize(
    "budget, message",
    [
        ({"depth": -1}, "depth: must be at least 0, got -1"),
        ({"max_states": -5}, "max_states: must be at least 0, got -5"),
    ],
)
def test_negative_budget_is_rejected(budget, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        chi_equivalent(seq("+d4^2"), seq("+d4^3"), **budget)
