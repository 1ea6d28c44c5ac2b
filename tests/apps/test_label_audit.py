"""The Corollary 5.6/5.7 label-size audit through ``app_view()``."""

import pytest

from repro import AppSpec, make_app
from repro.workloads import build_random_tree, get_scenario

LABEL_APPS = [("ancestry_labels", 4), ("routing_labels", 1)]


@pytest.mark.parametrize("name, slack", LABEL_APPS)
def test_label_apps_stay_within_the_bound_under_churn(name, slack):
    spec = get_scenario("mixed_flood")
    tree = spec.build_tree(seed=3)
    app = make_app(AppSpec(name), tree=tree)
    for request in spec.stream(tree, seed=3):
        app.serve(request)
    view = app.app_view()
    assert (view.label_bits, view.label_slack) == (app.label_bits(), slack)
    report = app.audit()
    assert report.passed, report.violations
    assert report.checks["labels"] == 1
    app.close()


@pytest.mark.parametrize("name, slack", LABEL_APPS)
def test_hand_widened_root_label_fails_the_audit(name, slack):
    tree = build_random_tree(64, seed=5)
    app = make_app(AppSpec(name), tree=tree)
    assert app.audit().passed
    low, _ = app.labels[tree.root]
    app.labels[tree.root] = (low, slack * 64 * 2 ** 20)
    report = app.audit()
    assert [v.invariant for v in report.violations] == ["labels"]
    assert "above the" in report.violations[0].message
    app.close()
