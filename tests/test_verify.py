import pytest

from crystalgraphs import Report, run_suite


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
