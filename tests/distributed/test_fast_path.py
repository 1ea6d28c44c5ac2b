"""Trace-identical equivalence of the event engine and the oracle.

The engine's contract (``repro.sim.scheduler``) is not "statistically
similar" to the reference scheduler it replaced — it is *the same
execution*: identical callback order means identical RNG consumption,
so per-request verdicts, message counters, the kernel trace's
transition sequence and the final simulated clock must all be
bit-identical to a run on the oracle (``tests/sim/oracle.py``), under
every schedule policy.  These tests drive both over the adversarial
catalogue and compare everything.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed.adaptive import DistributedAdaptiveController
from repro.distributed.iterated import DistributedIteratedController
from repro.errors import ConfigError
from repro.service import ControllerSession, ControllerSpec, SessionConfig
from repro.sim import SCHEDULE_POLICIES, Scheduler
from repro.workloads import get_scenario
from repro.workloads.catalogue import CATALOGUE
from repro.workloads.scenarios import TreeMirror, request_spec
from tests.sim import oracle


def _materialize(spec, seed):
    reference = spec.build_tree(seed=seed)
    return [request_spec(r) for r in spec.stream(reference, seed=seed)]


def _twin_requests(spec, seed, stream_specs):
    tree = spec.build_tree(seed=seed)
    mirror = TreeMirror(tree)
    requests = [mirror.request(s) for s in stream_specs]
    mirror.detach()
    return tree, requests


def _run_session_arm(spec, seed, stream_specs, *, on_oracle=False,
                     policy="fifo"):
    """One session-driven run; returns every behavioural artefact the
    equivalence contract covers (plus the scheduler it ran on)."""
    tree, requests = _twin_requests(spec, seed, stream_specs)
    config = SessionConfig(
        controller=ControllerSpec("distributed", m=spec.m, w=spec.w,
                                  u=spec.u),
        schedule_policy=policy, seed=seed,
        max_in_flight=max(len(requests), 1), trace=True)
    if on_oracle:
        with oracle.wired_oracle():
            session = ControllerSession(config, tree=tree)
    else:
        session = ControllerSession(config, tree=tree)
    session.submit_many(requests, stagger=0.25)
    records = list(session.drain())
    report = session.audit()
    assert report.passed, report.violations[:3]
    verdicts = tuple(r.verdict.value for r in records)
    counters = tuple(sorted(session.controller.counters.snapshot().items()))
    tally = tuple(sorted(session.tally().items()))
    trace_events = tuple(session.trace.events)
    now = session.now
    scheduler = session.scheduler
    session.close()
    return verdicts, counters, tally, trace_events, now, scheduler


@given(name=st.sampled_from(sorted(CATALOGUE)),
       seed=st.integers(min_value=0, max_value=5),
       policy=st.sampled_from(SCHEDULE_POLICIES))
@settings(max_examples=40, deadline=None)
def test_fast_path_is_trace_identical_on_the_catalogue(name, seed, policy):
    spec = get_scenario(name).scaled(0.25)
    stream_specs = _materialize(spec, seed)
    reference = _run_session_arm(spec, seed, stream_specs, on_oracle=True,
                                 policy=policy)
    engine = _run_session_arm(spec, seed, stream_specs, policy=policy)
    assert isinstance(reference[5], oracle.Scheduler)
    assert isinstance(engine[5], Scheduler)
    # Per-request verdict sequence, counters, tallies, the full
    # kernel-trace transition log, and the final simulated clock: all
    # identical.
    assert engine[:5] == reference[:5]


def test_fast_path_kernel_trace_is_nonempty():
    """The equivalence assertion must compare real evidence: deep_burst
    at small scale still performs permit/package transitions."""
    spec = get_scenario("deep_burst").scaled(0.2)
    stream_specs = _materialize(spec, 0)
    trace_events = _run_session_arm(spec, 0, stream_specs)[3]
    assert len(trace_events) > 0


def test_fast_path_rejected_for_synchronous_flavours():
    """``fast_path`` is no longer an option: every flavour rejects it
    (like any key its constructor does not take) with a ConfigError
    naming the accepted keys."""
    spec = get_scenario("hot_spot").scaled(0.1)
    for flavor in ("iterated", "distributed"):
        tree = spec.build_tree(seed=0)
        config = SessionConfig(
            controller=ControllerSpec(flavor, m=spec.m, w=spec.w,
                                      u=spec.u, options={"fast_path": True}))
        with pytest.raises(ConfigError, match="fast_path.*accepted: "):
            ControllerSession(config, tree=tree)


# ----------------------------------------------------------------------
# Staged wrappers: every stage shares the wrapper's scheduler.
# ----------------------------------------------------------------------
def _wrapper_runs(wrapper, spec, seed, stream_specs, **contract):
    """Drive the staged wrapper once on the oracle and once on the
    engine, per policy; yields (policy, oracle run, engine run)."""
    for policy in SCHEDULE_POLICIES:
        runs = []
        for scheduler in (oracle.make_oracle(policy, seed),
                          Scheduler(policy=policy, seed=seed)):
            tree, requests = _twin_requests(spec, seed, stream_specs)
            controller = wrapper(tree, m=spec.m, w=spec.w,
                                 scheduler=scheduler, **contract)
            outcomes = controller.process(requests)
            runs.append((
                tuple(o.status.value for o in outcomes),
                tuple(sorted(controller.counters.snapshot().items())),
                scheduler.now))
        yield policy, runs[0], runs[1]


@pytest.mark.parametrize("seed", [0, 2])
def test_iterated_wrapper_fast_path_is_equivalent(seed):
    spec = get_scenario("grow_shrink").scaled(0.25)
    stream_specs = _materialize(spec, seed)
    for policy, reference, engine in _wrapper_runs(
            DistributedIteratedController, spec, seed, stream_specs,
            u=spec.u):
        assert engine == reference, policy


@pytest.mark.parametrize("seed", [1])
def test_adaptive_wrapper_fast_path_is_equivalent(seed):
    spec = get_scenario("grow_shrink").scaled(0.25)
    stream_specs = _materialize(spec, seed)
    for policy, reference, engine in _wrapper_runs(
            DistributedAdaptiveController, spec, seed, stream_specs):
        assert engine == reference, policy
