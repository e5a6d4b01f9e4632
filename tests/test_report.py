"""Report rendering and the pass rule."""

from ainfty.report import Report


def test_report_that_checked_nothing_fails():
    report = Report("empty").note("K_max", 0)
    assert not report.passed
    assert report.text() == "\n".join([
        "[empty] FAIL",
        "  K_max = 0",
        "  checked = 0",
        "  failures = 1",
        "    nothing was checked",
    ])
    report.tick()
    assert report.passed
    assert report.text() == "[empty] PASS\n  K_max = 0\n  checked = 1"


def test_failures_keep_their_order_after_the_count():
    report = Report("broken")
    report.tick(3)
    report.fail("first")
    report.fail("second")
    assert not report.passed
    assert report.lines()[-3:] == ["  failures = 2", "    first", "    second"]
