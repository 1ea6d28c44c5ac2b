"""Unit tests for the application-level invariant audits."""

from repro.metrics.invariants import audit_app
from repro.protocol import AppView, ControllerView


class _FakeController:
    """Minimal ControllerProtocol stand-in with a tallies-only view."""

    def __init__(self, granted=5, m=10):
        self.granted = granted
        self._m = m

    def introspect(self):
        return ControllerView(flavor="fake", m=self._m, w=2,
                              granted=self.granted, rejected=0)


class _FakeApp:
    def __init__(self, **overrides):
        self.view = AppView(name="fake_app", iterations=3, size=10,
                            grants_banked=7, granted_total=12,
                            controller=_FakeController(), **overrides)

    def app_view(self):
        return self.view


def test_clean_app_passes():
    report = audit_app(_FakeApp())
    assert report.passed
    assert report.checks["conservation"] >= 1
    assert report.checks["safety"] >= 1  # the live engine was audited


def test_missing_app_view_is_a_dispatch_failure():
    report = audit_app(object())
    assert not report.passed
    assert report.violations[0].invariant == "dispatch"


def test_estimate_sandwich_violation():
    app = _FakeApp(estimate=31, beta=2.0)  # 31 vs n=10 breaks beta=2
    report = audit_app(app)
    assert any(v.invariant == "estimate" for v in report.violations)
    app_ok = _FakeApp(estimate=17, beta=2.0)
    assert not [v for v in audit_app(app_ok).violations
                if v.invariant == "estimate"]


def test_degenerate_estimate_is_flagged():
    report = audit_app(_FakeApp(estimate=0, beta=2.0))
    assert any(v.invariant == "estimate" for v in report.violations)


def test_id_uniqueness_range_and_coverage():
    # Duplicate id.
    report = audit_app(_FakeApp(ids=tuple([3] * 10)))
    assert any(v.invariant == "ids" for v in report.violations)
    # Out of the [1, 4n] range.
    report = audit_app(_FakeApp(ids=tuple(range(1, 10)) + (41,)))
    assert any("outside" in v.message for v in report.violations)
    # Fewer ids than nodes (a node lost its name).
    report = audit_app(_FakeApp(ids=tuple(range(1, 10))))
    assert any(v.invariant == "ids" for v in report.violations)
    # Exactly n unique in-range ids: clean.
    report = audit_app(_FakeApp(ids=tuple(range(1, 11))))
    assert not [v for v in report.violations if v.invariant == "ids"]


def test_rollover_conservation_violation():
    app = _FakeApp()
    app.view.grants_banked = 2  # 2 + 5 != 12
    report = audit_app(app)
    assert any(v.invariant == "conservation"
               and "banked" in v.message for v in report.violations)


def test_live_engine_violations_propagate():
    app = _FakeApp()
    app.view.controller = _FakeController(granted=99, m=10)
    app.view.granted_total = 7 + 99
    report = audit_app(app)
    assert any(v.invariant == "safety" for v in report.violations)


def test_label_size_bound():
    # n=10, slack=4: labels nest in [0, 4 * 21), 7 bits per endpoint.
    report = audit_app(_FakeApp(label_bits=14, label_slack=4))
    assert report.passed
    assert report.checks["labels"] == 1
    report = audit_app(_FakeApp(label_bits=16, label_slack=4))
    assert [v.invariant for v in report.violations] == ["labels"]
    # Undeclared: no label check at all.
    assert "labels" not in audit_app(_FakeApp()).checks
