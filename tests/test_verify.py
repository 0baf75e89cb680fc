from sisfit.verify import MAX_REPORTED_VIOLATIONS, VerificationReport, Violation


def test_violations_are_kept_per_check():
    report = VerificationReport(checks=["a", "b"])
    for g in range(MAX_REPORTED_VIOLATIONS + 6):
        report.add("a", "bad", cell=g)
    report.add("b", "worse", generator=3)
    assert report.n_violations == MAX_REPORTED_VIOLATIONS + 7
    assert len(report.violations_of("a")) == MAX_REPORTED_VIOLATIONS
    assert [str(v) for v in report.violations_of("b")] == ["[b] generator 3: worse"]
    assert report.failed == ["a", "b"] and not report.passed
    assert str(report).endswith("... and 6 more")


def test_violation_text_leaves_out_missing_location():
    assert str(Violation("c", "x", cell=2, generator=0)) == "[c] cell 2, generator 0: x"
    assert str(Violation("c", "x", cell=2)) == "[c] cell 2: x"
    assert str(Violation("c", "x")) == "[c] x"
