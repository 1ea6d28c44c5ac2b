"""Pop-order property: the event engine replays the oracle exactly.

For every schedule policy, a drawn program — events with nested
children (through both ``schedule`` and ``schedule_call``), cancels
from callbacks and from outside, new work between drains, bounded
``run(until)`` calls and lumpy ``step(budget)`` drains — runs on
:class:`repro.sim.Scheduler` and on the oracle
(``tests/sim/oracle.py``).  The execution logs must be identical:
which callback ran, in which order, at which ``now``, with which
``pending()`` backlog, and the final ``executed`` / ``now`` counts.
The oracle steps one event at a time, so a ``step(budget)`` drain on
the engine is ``budget`` single steps on the oracle.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import SCHEDULE_POLICIES, Scheduler
from tests.sim.oracle import make_oracle

# Half-unit delays force timestamp ties, exercising the seq tie-break.
_DELAYS = st.integers(min_value=0, max_value=8).map(lambda k: k / 2)
# A child: (delay, via schedule_call, index of a handle to cancel).
_CHILD = st.tuples(_DELAYS, st.booleans(),
                   st.one_of(st.none(), st.integers(0, 40)))
_EVENT = st.tuples(_DELAYS, st.lists(_CHILD, max_size=3))
_OP = st.one_of(
    st.tuples(st.just("step"), st.integers(1, 20)),
    st.tuples(st.just("until"), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("schedule"), _EVENT),
)


def _execute(sched, initial, ops):
    log = []
    handles = []
    labels = iter(range(1 << 30))

    def fire(label):
        log.append((label, sched.now, sched.pending()))

    def spawn(delay, children):
        label = next(labels)

        def run():
            fire(label)
            for child_delay, via_call, victim in children:
                child = next(labels)
                if via_call:
                    sched.schedule_call(child_delay, fire, child)
                else:
                    handles.append(sched.schedule(
                        child_delay, lambda c=child: fire(c)))
                if victim is not None and handles:
                    handles[victim % len(handles)].cancel()

        handles.append(sched.schedule(delay, run))

    for delay, children in initial:
        spawn(delay, children)
    for kind, value in ops:
        if kind == "step":
            if isinstance(sched, Scheduler):
                ran = sched.step(value)
            else:
                ran = False
                for _ in range(value):
                    if not sched.step():
                        break
                    ran = True
            log.append(("step", ran))
        elif kind == "until":
            sched.run(until=sched.now + value)
        elif kind == "cancel":
            if handles:
                handles[value % len(handles)].cancel()
        else:
            spawn(*value)
        log.append(("at", sched.now, sched.pending(), sched.executed))
    sched.run()
    log.append(("end", sched.now, sched.pending(), sched.executed))
    return log


@given(policy=st.sampled_from(SCHEDULE_POLICIES),
       seed=st.integers(min_value=0, max_value=3),
       initial=st.lists(_EVENT, max_size=25),
       ops=st.lists(_OP, max_size=20))
@settings(max_examples=200, deadline=None)
def test_engine_pop_order_matches_the_oracle(policy, seed, initial, ops):
    oracle = _execute(make_oracle(policy, seed), initial, ops)
    engine = _execute(Scheduler(policy=policy, seed=seed), initial, ops)
    assert engine == oracle
