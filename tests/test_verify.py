import json
import math
import sys

import pytest

from crystalgraphs import Report, run_suite
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
