"""Handler behavior: joins, splices, availability toggles, propagation rules.

Handlers are pure functions from (view, message) to effects, so every test
here is a direct call with a hand-built view; the bus is never involved.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfoverlay.bus import (
    NULL,
    Identity,
    JoinRecord,
    OStRole,
    OStUpdate,
    Sample,
    arrivals_key,
    mybox_key,
    oneback_key,
    ore_key,
    ose_key,
)
from rfoverlay import protocol
from rfoverlay.protocol import (
    SYSTEM_EMPTY,
    TRUST_ORE,
    Availability,
    Hint,
    NodeView,
    ProtocolError,
    handle_delivery,
    handle_new_ore,
    handle_ose_update,
    join,
    on_mybox_from_hint,
    on_mybox_from_ore,
    on_oneback,
    published_hint,
    set_available,
    set_unavailable,
    subscriptions,
)

AVAILABLE = Availability.AVAILABLE
UNAVAILABLE = Availability.UNAVAILABLE


def member(me, ose, ore, tre=TRUST_ORE, state=AVAILABLE, last_mybox=None):
    """A settled (non-joining) view."""
    return NodeView(me=me, ose=ose, ore=ore, tre=tre, state=state, last_mybox=last_mybox)


def arrivals_sample(node, seq=1, time=0):
    return Sample(key=arrivals_key(), payload=JoinRecord(node), publisher=node, seq=seq, time=time)


# -- derived subscription set -------------------------------------------------


def test_joining_node_reads_the_arrival_log():
    view = join(3).view
    assert subscriptions(view) == frozenset({arrivals_key(), ore_key(3), ose_key(3)})


def test_settled_node_reads_its_receiver():
    view = member(me=1, ose=0, ore=2)
    assert subscriptions(view) == frozenset({ore_key(1), ose_key(1), mybox_key(2)})


def test_hint_adds_the_hinted_stream():
    view = member(me=1, ose=0, ore=2, tre=Hint(4))
    assert mybox_key(4) in subscriptions(view)
    assert mybox_key(2) in subscriptions(view)


def test_hint_on_self_or_receiver_adds_nothing():
    assert subscriptions(member(me=1, ose=0, ore=2, tre=Hint(1))) == subscriptions(
        member(me=1, ose=0, ore=2)
    )
    assert subscriptions(member(me=1, ose=0, ore=2, tre=Hint(2))) == subscriptions(
        member(me=1, ose=0, ore=2)
    )


def test_system_empty_adds_the_wakeup_channel():
    view = member(me=1, ose=0, ore=2, tre=SYSTEM_EMPTY, state=UNAVAILABLE)
    assert oneback_key() in subscriptions(view)


# -- status value --------------------------------------------------------------


def test_published_hint_names_self_while_available():
    assert published_hint(member(me=1, ose=0, ore=2)) == Identity(1)


def test_published_hint_forwards_to_the_receiver_when_down():
    view = member(me=1, ose=0, ore=2, state=UNAVAILABLE)
    assert published_hint(view) == Identity(2)


def test_published_hint_forwards_a_hint_when_down():
    view = member(me=1, ose=0, ore=2, tre=Hint(4), state=UNAVAILABLE)
    assert published_hint(view) == Identity(4)


def test_published_hint_is_null_when_nothing_remains():
    assert published_hint(member(me=1, ose=0, ore=2, tre=SYSTEM_EMPTY, state=UNAVAILABLE)) == NULL
    assert published_hint(member(me=1, ose=0, ore=2, tre=Hint(1), state=UNAVAILABLE)) == NULL


# -- joining --------------------------------------------------------------------


def test_join_announces_then_reads_back():
    effects = join(3)
    assert effects.publications == ((arrivals_key(), JoinRecord(3)),)
    assert set(effects.subscribe) == {arrivals_key(), ore_key(3), ose_key(3)}
    assert effects.view.joining


def test_first_node_forms_a_ring_of_one():
    effects = handle_delivery(join(0).view, arrivals_sample(0))
    view = effects.view
    assert not view.joining
    assert (view.ose, view.ore) == (0, 0)
    assert effects.publications == ()
    assert arrivals_key() in effects.unsubscribe


def test_joiner_asks_the_last_arrival():
    view = join(2).view
    view = handle_delivery(view, arrivals_sample(0)).view
    view = handle_delivery(view, arrivals_sample(1)).view
    effects = handle_delivery(view, arrivals_sample(2))
    assert effects.publications == ((ore_key(1), OStUpdate(OStRole.NEW_ORE, 2)),)
    assert effects.view.ose == 1
    assert effects.view.joining  # not done until the answer arrives


def test_members_ignore_the_arrival_log():
    view = member(me=0, ose=1, ore=1)
    effects = handle_delivery(view, arrivals_sample(7))
    assert effects.view == view
    assert effects.publications == ()


def test_splice_rewires_both_sides():
    view = member(me=1, ose=0, ore=0)
    effects = handle_new_ore(view, OStUpdate(OStRole.NEW_ORE, 2))
    assert effects.publications == (
        (ose_key(2), OStUpdate(OStRole.NEW_ORE, 0)),
        (ose_key(0), OStUpdate(OStRole.NEW_OSE, 2)),
    )
    assert effects.view.ore == 2
    assert effects.view.tre == TRUST_ORE


def test_splice_is_idempotent_on_redelivery():
    view = member(me=1, ose=0, ore=2)
    effects = handle_new_ore(view, OStUpdate(OStRole.NEW_ORE, 2))
    assert effects.view == view
    assert effects.publications == ()


def test_splice_rejects_the_wrong_role():
    with pytest.raises(ProtocolError):
        handle_new_ore(member(me=1, ose=0, ore=0), OStUpdate(OStRole.NEW_OSE, 2))


def test_ose_answer_completes_the_join():
    joining = join(2).view
    joining = handle_delivery(joining, arrivals_sample(0)).view
    joining = handle_delivery(joining, arrivals_sample(1)).view
    joining = handle_delivery(joining, arrivals_sample(2)).view
    effects = handle_ose_update(joining, OStUpdate(OStRole.NEW_ORE, 0))
    view = effects.view
    assert not view.joining
    assert (view.ose, view.ore) == (1, 0)
    assert arrivals_key() in effects.unsubscribe
    assert mybox_key(0) in effects.subscribe


def test_new_sender_update_repoints_ose():
    view = member(me=0, ose=1, ore=1)
    effects = handle_ose_update(view, OStUpdate(OStRole.NEW_OSE, 2))
    assert effects.view.ose == 2
    assert effects.publications == ()


# -- toggling -------------------------------------------------------------------


def test_leaving_forwards_readers_to_the_receiver():
    effects = set_unavailable(member(me=1, ose=0, ore=2))
    assert effects.publications == ((mybox_key(1), Identity(2)),)
    assert effects.view.state is UNAVAILABLE
    assert effects.view.last_mybox == Identity(2)


def test_last_node_leaving_empties_the_system():
    effects = set_unavailable(member(me=0, ose=0, ore=0))  # ring of one
    assert effects.publications == ((mybox_key(0), NULL),)
    assert effects.view.tre == SYSTEM_EMPTY
    assert oneback_key() in effects.subscribe

    lone = member(me=1, ose=0, ore=2, tre=Hint(1), state=AVAILABLE)
    effects = set_unavailable(lone)
    assert effects.publications == ((mybox_key(1), NULL),)
    assert effects.view.tre == SYSTEM_EMPTY


def test_toggle_preconditions():
    with pytest.raises(ProtocolError):
        set_unavailable(member(me=1, ose=0, ore=2, state=UNAVAILABLE))
    with pytest.raises(ProtocolError):
        set_available(member(me=1, ose=0, ore=2, state=AVAILABLE))
    with pytest.raises(ProtocolError):
        set_unavailable(join(1).view)


def test_returning_announces_itself():
    view = member(me=1, ose=0, ore=2, state=UNAVAILABLE, last_mybox=Identity(2))
    effects = set_available(view)
    assert effects.publications == ((mybox_key(1), Identity(1)),)
    assert effects.view.state is AVAILABLE


def test_first_return_wakes_the_empty_system():
    view = member(me=1, ose=0, ore=2, tre=SYSTEM_EMPTY, state=UNAVAILABLE, last_mybox=NULL)
    effects = set_available(view)
    assert effects.publications == (
        (oneback_key(), Identity(1)),
        (mybox_key(1), Identity(1)),
    )
    assert effects.view.tre == Hint(1)
    assert oneback_key() in effects.unsubscribe


# -- propagation -----------------------------------------------------------------


def test_receiver_news_retargets_an_available_node_silently():
    view = member(me=1, ose=0, ore=2)
    effects = on_mybox_from_ore(view, Identity(4))
    assert effects.view.tre == Hint(4)
    assert effects.publications == ()
    assert mybox_key(4) in effects.subscribe


def test_receiver_recovery_restores_trust():
    view = member(me=1, ose=0, ore=2, tre=Hint(4))
    effects = on_mybox_from_ore(view, Identity(2))
    assert effects.view.tre == TRUST_ORE
    assert mybox_key(4) in effects.unsubscribe


def test_down_node_propagates_receiver_news_backwards():
    view = member(me=1, ose=0, ore=2, state=UNAVAILABLE, last_mybox=Identity(2))
    effects = on_mybox_from_ore(view, Identity(4))
    assert effects.publications == ((mybox_key(1), Identity(4)),)
    assert effects.view.last_mybox == Identity(4)


def test_propagation_stops_at_an_already_published_value():
    view = member(me=1, ose=0, ore=2, state=UNAVAILABLE, last_mybox=Identity(4))
    effects = on_mybox_from_ore(view, Identity(4))
    assert effects.publications == ()
    assert effects.view.tre == Hint(4)


def test_news_naming_me_is_never_forwarded():
    """A full wrap of the ring ends here instead of echoing forever."""
    view = member(me=1, ose=0, ore=2, state=UNAVAILABLE, last_mybox=Identity(2))
    effects = on_mybox_from_ore(view, Identity(1))
    assert effects.publications == ()
    assert effects.view.tre == Hint(1)


def test_null_wave_marks_the_system_empty():
    view = member(me=1, ose=0, ore=2, state=UNAVAILABLE, last_mybox=Identity(2))
    effects = on_mybox_from_ore(view, NULL)
    assert effects.view.tre == SYSTEM_EMPTY
    assert effects.publications == ((mybox_key(1), NULL),)
    assert oneback_key() in effects.subscribe


def test_hint_news_retargets_without_republishing():
    view = member(me=1, ose=0, ore=2, tre=Hint(4), state=UNAVAILABLE, last_mybox=Identity(4))
    effects = on_mybox_from_hint(view, Identity(6))
    assert effects.view.tre == Hint(6)
    assert effects.publications == ()
    assert mybox_key(6) in effects.subscribe
    assert mybox_key(4) in effects.unsubscribe


def test_hint_news_requires_a_hint():
    with pytest.raises(ProtocolError):
        on_mybox_from_hint(member(me=1, ose=0, ore=2), Identity(6))


def test_wakeup_adopts_the_recoverer():
    view = member(me=1, ose=0, ore=2, tre=SYSTEM_EMPTY, state=UNAVAILABLE, last_mybox=NULL)
    effects = on_oneback(view, Identity(5))
    assert effects.view.tre == Hint(5)
    assert effects.publications == ((mybox_key(1), Identity(5)),)
    assert oneback_key() in effects.unsubscribe


def test_wakeup_ignores_the_own_echo():
    view = member(me=1, ose=0, ore=2, tre=SYSTEM_EMPTY, state=UNAVAILABLE, last_mybox=NULL)
    effects = on_oneback(view, Identity(1))
    assert effects.view == view
    assert effects.publications == ()


def test_wakeup_outside_system_empty_is_an_error():
    with pytest.raises(ProtocolError):
        on_oneback(member(me=1, ose=0, ore=2), Identity(5))


# -- routing ---------------------------------------------------------------------


def test_deliveries_route_by_key():
    view = member(me=1, ose=0, ore=2)
    sample = Sample(key=mybox_key(2), payload=Identity(4), publisher=2, seq=1, time=0)
    assert handle_delivery(view, sample).view.tre == Hint(4)


def test_misrouted_samples_are_rejected():
    view = member(me=1, ose=0, ore=2)
    stray = Sample(key=mybox_key(9), payload=Identity(4), publisher=9, seq=1, time=0)
    with pytest.raises(ProtocolError):
        handle_delivery(view, stray)
    wrong_instance = Sample(
        key=ore_key(5), payload=OStUpdate(OStRole.NEW_ORE, 7), publisher=7, seq=1, time=0
    )
    with pytest.raises(ProtocolError):
        handle_delivery(view, wrong_instance)


# -- properties -------------------------------------------------------------------

node_ids = st.integers(0, 5)
tres = st.one_of(st.just(TRUST_ORE), st.builds(Hint, node_ids), st.just(SYSTEM_EMPTY))
states = st.sampled_from([AVAILABLE, UNAVAILABLE])
mybox_values = st.one_of(st.none(), st.just(NULL), st.builds(Identity, node_ids))
messages = st.one_of(st.just(NULL), st.builds(Identity, node_ids))


@st.composite
def settled_views(draw):
    return NodeView(
        me=draw(node_ids),
        ose=draw(node_ids),
        ore=draw(node_ids),
        tre=draw(tres),
        state=draw(states),
        last_mybox=draw(mybox_values),
    )


@st.composite
def views_of(draw, me):
    """Any view of node `me`: joining or settled, any receiver, any
    next-available value (a hint on itself or its receiver included), any
    state."""
    ore = draw(node_ids)
    tre = draw(st.one_of(tres, st.just(Hint(me)), st.just(Hint(ore))))
    return NodeView(
        me=me, ose=draw(node_ids), ore=ore, tre=tre, state=draw(states),
        last_mybox=draw(mybox_values), joining=draw(st.booleans()),
    )


def trace_order(keys):
    """Subscription keys as the trace lists them: by topic name, then by
    instance."""
    return tuple(
        sorted(keys, key=lambda k: (k.topic.value, -1 if k.instance is None else k.instance))
    )


@settings(max_examples=500, deadline=None)
@given(data=st.data(), me=node_ids)
def test_effects_diff_is_the_subscription_set_difference(data, me):
    """For any two views of one node, the subscription changes are exactly
    the set differences of subscriptions(), in trace order; a join
    subscribes to exactly its joining view's set."""
    old = data.draw(views_of(me))
    new = data.draw(views_of(me))
    effects = protocol._effects(old, new)
    before, after = subscriptions(old), subscriptions(new)
    assert effects.subscribe == trace_order(after - before)
    assert effects.unsubscribe == trace_order(before - after)
    joined = join(me)
    assert joined.subscribe == trace_order(subscriptions(joined.view))


@settings(max_examples=300, deadline=None)
@given(view=settled_views(), msg=messages)
def test_receiver_news_is_idempotent(view, msg):
    """Redelivering the same status value must change nothing the second time."""
    first = on_mybox_from_ore(view, msg)
    second = on_mybox_from_ore(first.view, msg)
    assert second.view == first.view
    assert second.publications == ()
    assert second.subscribe == () and second.unsubscribe == ()


@settings(max_examples=200, deadline=None)
@given(view=settled_views(), msg=messages)
def test_hint_news_is_idempotent(view, msg):
    view = NodeView(
        me=view.me, ose=view.ose, ore=view.ore,
        tre=Hint(view.me + 1), state=view.state, last_mybox=view.last_mybox,
    )
    first = on_mybox_from_hint(view, msg)
    if not isinstance(first.view.tre, Hint):
        return  # the hint resolved to trust; the subscription is gone
    second = on_mybox_from_hint(first.view, msg)
    assert second.view == first.view
    assert second.publications == ()


@settings(max_examples=200, deadline=None)
@given(view=settled_views(), who=node_ids)
def test_wakeup_is_idempotent(view, who):
    view = NodeView(
        me=view.me, ose=view.ose, ore=view.ore,
        tre=SYSTEM_EMPTY, state=view.state, last_mybox=view.last_mybox,
    )
    first = on_oneback(view, Identity(who))
    if first.view.tre == SYSTEM_EMPTY:
        # Own echo: redelivery is possible and must stay a no-op. Once a
        # recoverer is adopted the wake-up subscription is gone instead.
        second = on_oneback(first.view, Identity(who))
        assert second.view == first.view
        assert second.publications == ()


@settings(max_examples=200, deadline=None)
@given(view=settled_views(), joiner=node_ids)
def test_splice_is_idempotent(view, joiner):
    first = handle_new_ore(view, OStUpdate(OStRole.NEW_ORE, joiner))
    second = handle_new_ore(first.view, OStUpdate(OStRole.NEW_ORE, joiner))
    assert second.view == first.view
    assert second.publications == ()


@settings(max_examples=200, deadline=None)
@given(view=settled_views(), msg=messages)
def test_handlers_never_mutate_their_input(view, msg):
    snapshot = NodeView(
        me=view.me, ose=view.ose, ore=view.ore,
        tre=view.tre, state=view.state, last_mybox=view.last_mybox,
    )
    on_mybox_from_ore(view, msg)
    assert view == snapshot
