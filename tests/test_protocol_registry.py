"""ControllerProtocol conformance, the public registry, and detach
idempotency across all eight controller flavours."""

import pytest

from repro import (
    CONTROLLER_FLAVORS,
    ConfigError,
    ControllerProtocol,
    ControllerSession,
    ControllerSpec,
    ControllerView,
    ReproError,
    Request,
    RequestKind,
    SessionConfig,
    controller_flavors,
    make_controller,
)
from repro.metrics import audit_controller
from repro.workloads import build_random_tree
from tests.drivers import drive_handle


def _fresh(flavor, n=30, seed=4):
    tree = build_random_tree(n, seed=seed)
    return tree, make_controller(flavor, tree, m=240, w=30, u=480)


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------
def test_registry_lists_all_eight_flavors():
    assert controller_flavors() == CONTROLLER_FLAVORS
    assert set(CONTROLLER_FLAVORS) == {
        "centralized", "iterated", "adaptive", "terminating",
        "distributed", "distributed_iterated", "distributed_adaptive",
        "trivial",
    }


def test_unknown_flavor_error_lists_registry():
    tree = build_random_tree(5)
    with pytest.raises(ConfigError) as err:
        make_controller("quantum", tree, m=10, w=2, u=20)
    for flavor in CONTROLLER_FLAVORS:
        assert flavor in str(err.value)


def test_missing_u_is_rejected_for_known_u_flavors():
    tree = build_random_tree(5)
    with pytest.raises(ConfigError, match="needs the node bound"):
        make_controller("centralized", tree, m=10, w=2)
    # Adaptive flavours derive U per epoch and need none.
    assert make_controller("adaptive", tree, m=10, w=2) is not None


def test_missing_u_error_names_the_registry():
    tree = build_random_tree(5)
    with pytest.raises(ConfigError) as err:
        make_controller("distributed", tree, m=10, w=2)
    for flavor in CONTROLLER_FLAVORS:
        assert flavor in str(err.value)


def test_config_error_is_one_catchable_type():
    """Both misconfiguration paths raise the *same* exception type,
    and it stays catchable as ValueError (the pre-1.3 contract) and as
    ReproError (the library-wide base)."""
    tree = build_random_tree(5)
    for bad_call in (
        lambda: make_controller("quantum", tree, m=10, w=2, u=20),
        lambda: make_controller("iterated", tree, m=10, w=2),
    ):
        for catch in (ConfigError, ValueError, ReproError):
            with pytest.raises(catch):
                bad_call()


def test_hyphenated_flavor_names_resolve():
    tree = build_random_tree(5)
    controller = make_controller("distributed-iterated", tree,
                                 m=20, w=4, u=40)
    assert controller.introspect().flavor == "distributed-iterated"


def test_kwargs_pass_through():
    from repro.metrics import MoveCounters
    tree = build_random_tree(5)
    counters = MoveCounters()
    controller = make_controller("centralized", tree, m=20, w=4, u=40,
                                 counters=counters)
    assert controller.counters is counters


@pytest.mark.parametrize("flavor", CONTROLLER_FLAVORS)
def test_unknown_option_is_a_config_error(flavor):
    """A keyword the flavour's constructor does not take is a
    ConfigError naming the accepted keys — directly and through the
    session's ``ControllerSpec.options`` — never a bare TypeError."""
    tree = build_random_tree(5)
    with pytest.raises(ConfigError, match="'fast_pth'; accepted: .*counters"):
        make_controller(flavor, tree, m=20, w=4, u=40, fast_pth=True)
    config = SessionConfig(controller=ControllerSpec(
        flavor, m=20, w=4, u=40, options={"fast_pth": True}))
    with pytest.raises(ConfigError, match="fast_pth"):
        ControllerSession(config, tree=build_random_tree(5))


# ----------------------------------------------------------------------
# Protocol conformance (all eight flavours).
# ----------------------------------------------------------------------
@pytest.mark.parametrize("flavor", CONTROLLER_FLAVORS)
def test_protocol_surface(flavor):
    tree, controller = _fresh(flavor)
    assert isinstance(controller, ControllerProtocol)
    outcome = controller.handle(Request(RequestKind.PLAIN, tree.root))
    assert outcome.granted
    outcomes = controller.handle_batch(
        [Request(RequestKind.PLAIN, tree.root) for _ in range(3)])
    assert len(outcomes) == 3 and all(o.granted for o in outcomes)
    assert isinstance(controller.unused_permits(), int)
    view = controller.introspect()
    assert isinstance(view, ControllerView)
    assert view.granted >= 4
    assert view.m == 240


@pytest.mark.parametrize("flavor", CONTROLLER_FLAVORS)
def test_introspection_audits_green_after_a_run(flavor):
    tree, controller = _fresh(flavor)
    drive_handle(tree, controller.handle, steps=120, seed=9)
    report = audit_controller(controller)
    assert report.passed, (flavor, report.violations[:3])
    assert sum(report.checks.values()) > 0


# ----------------------------------------------------------------------
# detach() idempotency (the regression the protocol mandates).
# ----------------------------------------------------------------------
@pytest.mark.parametrize("flavor", CONTROLLER_FLAVORS)
def test_detach_is_idempotent(flavor):
    tree, controller = _fresh(flavor)
    drive_handle(tree, controller.handle, steps=40, seed=2)
    controller.detach()
    controller.detach()  # second call must be a no-op, never an error
    # The tree keeps working after the detach pair.
    tree.add_leaf(tree.root)


def test_detach_idempotent_after_internal_rollovers():
    """Wrappers that already detached their inner stage (halving
    rollover, termination) must still detach cleanly twice."""
    tree = build_random_tree(20, seed=1)
    controller = make_controller("terminating", tree, m=6, w=2, u=40)
    # Exhaust so the wrapper terminates and detaches its inner engine.
    for _ in range(10):
        controller.handle(Request(RequestKind.PLAIN, tree.root))
    assert controller.terminated
    controller.detach()
    controller.detach()


def test_remove_listener_is_discard_semantics():
    tree = build_random_tree(4)
    listener = object.__new__(type("L", (), {}))
    tree.remove_listener(listener)  # never registered: still a no-op
