import json
import math
import sys
from collections import Counter

import pytest

from crystalgraphs import (CrystalContext, KGraph, Report, builtin_datum,
                           run_suite)
from crystalgraphs.verify import json_count


class Unprintable:
    def __repr__(self):
        raise AssertionError("formatted a passing check")

    __str__ = __repr__


def test_passing_check_formats_nothing():
    rep = Report("lazy")
    rep.check(True, "value %s, again %r", Unprintable(), Unprintable())
    assert rep.instances_checked == 1 and rep.failures == []


def test_failing_check_records_formatted_text():
    rep = Report("lazy")
    rep.check(False, "degree of %s * %s is not additive", (1, 0), "b2")
    rep.check(False, "a message with no arguments keeps its 100%")
    rep.check(False, "%r is not %s", "b2", [1, 2])
    assert rep.instances_checked == 3
    assert rep.failures == ["degree of (1, 0) * b2 is not additive",
                            "a message with no arguments keeps its 100%",
                            "'b2' is not [1, 2]"]
    assert not rep.ok


@pytest.mark.parametrize("algebra", ["A2", "C2"])
def test_kgraph_axioms_pass_under_opposite(algebra):
    rep = run_suite("kgraph-axioms", algebra=algebra, convention="opposite",
                    degree_bound=(1, 1))
    assert rep.ok, rep.failures[:3]


@pytest.mark.parametrize("bound", [(1.5, 1), ("1", 1), (True, 1), (1.0, 1)],
                         ids=["1.5", "string", "bool", "1.0"])
def test_degree_bound_refuses_non_integers(bound):
    # unchecked, 1.5 and "1" raise TypeError deep in the suite and True runs as 1
    with pytest.raises(ValueError, match=r"degree bound .* integer entries"):
        run_suite("kgraph-axioms", algebra="A2", degree_bound=bound)


def test_json_count_keeps_small_integers():
    assert json_count(0) == 0
    assert json_count(13824) == 13824
    assert json_count(2 ** 96) == 2 ** 96


def test_json_count_beyond_the_str_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or limit >= 5000:
        pytest.skip("10**5000 fits the int-to-str limit here")
    n = 10 ** 5000
    value = json_count(n)
    assert set(value) == {"hex", "log10"}
    assert value["log10"] == pytest.approx(5000)
    back = json.loads(json.dumps({"count": value}))["count"]
    assert int(back["hex"], 16) == n
    # the switch sits exactly at 10**limit
    assert json_count(10 ** limit - 1) == 10 ** limit - 1
    assert json_count(10 ** limit)["log10"] == pytest.approx(limit)
    assert math.isclose(json_count(2 ** 14400)["log10"], 14400 * math.log10(2))


def test_representative_disagreement_is_recorded(monkeypatch):
    # a membership test that accepts everything disagrees with `is_path`;
    # the suite must record that, not raise on the rejected representative.
    # Membership is `chain_ends(...) is not None`, so a non-member gets the
    # ends () instead of None; members keep their true ends.
    from crystalgraphs.rightends import chain_ends
    monkeypatch.setattr("crystalgraphs.verify.chain_ends",
                        lambda *args: chain_ends(*args) or ())
    rep = run_suite("kgraph-axioms", algebra="A2", degree_bound=(1, 1))
    assert rep.instances_checked == 3760
    assert len(rep.failures) == 55
    assert all(f.startswith("path test at") for f in rep.failures)


ADDITIVE = "degree of %s * %s is not additive"
ENDPOINTS = "endpoints of %s * %s are wrong"
ASSOCIATIVE = "associativity fails on %s, %s, %s"

# (composable pairs, composable triples, instances_checked) at bound (1, 1),
# the same under both conventions
COMPOSITION_COUNTS = {"A2": (392, 2592, 3760), "C2": (1162, 9220, 12618)}


@pytest.mark.parametrize("algebra", sorted(COMPOSITION_COUNTS))
@pytest.mark.parametrize("convention", ["hong-kang", "opposite"])
def test_composition_checks_every_pair_and_triple_once(monkeypatch, algebra,
                                                       convention):
    seen: dict = {}
    check = Report.check

    def counting(self, ok, fmt, *args):
        seen.setdefault(fmt, Counter())[args] += 1
        check(self, ok, fmt, *args)

    monkeypatch.setattr(Report, "check", counting)
    rep = run_suite("kgraph-axioms", algebra=algebra, convention=convention,
                    degree_bound=(1, 1))
    assert rep.ok, rep.failures[:3]

    # oracle: the quadratic scan over all pairs of enumerated paths
    kg = KGraph(CrystalContext(builtin_datum(algebra), convention))
    paths = kg.enumerate_paths((1, 1))
    pairs = [(p, q) for p in paths for q in paths
             if kg.source(p) == kg.range(q)]
    triples = [(p, q, r) for p, q in pairs for r in paths
               if kg.source(q) == kg.range(r)]
    assert seen[ADDITIVE] == Counter(pairs)
    assert seen[ENDPOINTS] == Counter(pairs)
    assert seen[ASSOCIATIVE] == Counter(triples)
    assert (len(pairs), len(triples), rep.instances_checked) == \
        COMPOSITION_COUNTS[algebra]


@pytest.mark.slow
def test_kgraph_axioms_a3_frontier():
    rep = run_suite("kgraph-axioms", algebra="A3", degree_bound=(1, 1, 1))
    assert rep.ok, rep.failures[:3]
    assert rep.details["paths"] == 1169
    assert rep.instances_checked == 902361
