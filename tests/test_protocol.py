"""Handler behavior: joins, splices, availability toggles, propagation rules.

Handlers are pure functions from (view, message) to effects, so every test
here is a direct call with a hand-built view; the bus is never involved.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rfoverlay.bus import (
    ARRIVALS_KEY,
    ONEBACK_KEY,
    Sample,
    mybox_key,
    ore_key,
    ose_key,
)
from rfoverlay import protocol
from rfoverlay.protocol import (
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


def member(me, ose, ore, tre=..., available=True, last_mybox=None):
    """A settled (non-joining) view; tre defaults to the receiver (trust it)."""
    tre = ore if tre is ... else tre
    return NodeView(me=me, ose=ose, ore=ore, tre=tre, available=available, last_mybox=last_mybox)


def arrivals_sample(node, seq=1):
    return Sample(key=ARRIVALS_KEY, payload=node, publisher=node, seq=seq)


# -- values --------------------------------------------------------------------


def test_views_and_effects_are_immutable_named_tuples():
    """Views and effects keep their field layout and refuse assignment, so
    the engine and its clones can share them."""
    view = member(me=1, ose=0, ore=2)
    assert view._fields == (
        "me", "ose", "ore", "tre", "available", "last_mybox", "joining", "predecessor"
    )
    assert (view.last_mybox, view.joining, view.predecessor) == (None, False, None)
    effects = protocol.Effects(view)
    assert effects._fields == ("view", "publications", "subscribe", "unsubscribe")
    assert effects == (view, (), (), ())
    with pytest.raises(AttributeError):
        view.tre = 4
    with pytest.raises(AttributeError):
        effects.publications = ()


def test_status_values_are_shared():
    """A status value is the bare node id it names: what a handler publishes
    and what it adopts from news are the same int."""
    down = set_unavailable(member(me=1, ose=0, ore=2, tre=4)).view
    assert published_hint(down) == 4 and type(published_hint(down)) is int
    up = set_available(down)
    assert up.publications[0][1] == 1 and type(up.publications[0][1]) is int
    followed = on_mybox_from_ore(member(me=1, ose=0, ore=2), 5)
    assert followed.view.tre == 5


# -- derived subscription set -------------------------------------------------


def test_joining_node_reads_the_arrival_log():
    view = join(3).view
    assert subscriptions(view) == frozenset({ARRIVALS_KEY, ore_key(3), ose_key(3)})


def test_settled_node_reads_its_receiver():
    view = member(me=1, ose=0, ore=2)
    assert subscriptions(view) == frozenset({ore_key(1), ose_key(1), mybox_key(2)})


def test_hint_adds_the_hinted_stream():
    view = member(me=1, ose=0, ore=2, tre=4)
    assert mybox_key(4) in subscriptions(view)
    assert mybox_key(2) in subscriptions(view)


def test_hint_on_self_or_receiver_adds_nothing():
    assert subscriptions(member(me=1, ose=0, ore=2, tre=1)) == subscriptions(
        member(me=1, ose=0, ore=2)
    )
    assert subscriptions(member(me=1, ose=0, ore=2, tre=2)) == subscriptions(
        member(me=1, ose=0, ore=2)
    )


def test_system_empty_adds_the_wakeup_channel():
    view = member(me=1, ose=0, ore=2, tre=None, available=False)
    assert ONEBACK_KEY in subscriptions(view)


# -- status value --------------------------------------------------------------


def test_published_hint_names_self_while_available():
    assert published_hint(member(me=1, ose=0, ore=2)) == 1


def test_published_hint_forwards_to_the_receiver_when_down():
    view = member(me=1, ose=0, ore=2, available=False)
    assert published_hint(view) == 2


def test_published_hint_forwards_a_hint_when_down():
    view = member(me=1, ose=0, ore=2, tre=4, available=False)
    assert published_hint(view) == 4


def test_published_hint_is_null_when_nothing_remains():
    assert published_hint(member(me=1, ose=0, ore=2, tre=None, available=False)) is None
    assert published_hint(member(me=1, ose=0, ore=2, tre=1, available=False)) is None


# -- joining --------------------------------------------------------------------


def test_join_announces_then_reads_back():
    effects = join(3)
    assert effects.publications == ((ARRIVALS_KEY, 3),)
    assert set(effects.subscribe) == {ARRIVALS_KEY, ore_key(3), ose_key(3)}
    assert effects.view.joining


def test_first_node_forms_a_ring_of_one():
    effects = handle_delivery(join(0).view, arrivals_sample(0))
    view = effects.view
    assert not view.joining
    assert (view.ose, view.ore) == (0, 0)
    assert effects.publications == ()
    assert ARRIVALS_KEY in effects.unsubscribe


def test_joiner_asks_the_last_arrival():
    view = join(2).view
    view = handle_delivery(view, arrivals_sample(0)).view
    view = handle_delivery(view, arrivals_sample(1)).view
    effects = handle_delivery(view, arrivals_sample(2))
    assert effects.publications == ((ore_key(1), 2),)
    assert effects.view.ose == 1
    assert effects.view.joining  # not done until the answer arrives


def test_members_ignore_the_arrival_log():
    view = member(me=0, ose=1, ore=1)
    effects = handle_delivery(view, arrivals_sample(7))
    assert effects.view == view
    assert effects.publications == ()


def test_splice_rewires_both_sides():
    view = member(me=1, ose=0, ore=0)
    effects = handle_new_ore(view, 2)
    assert effects.publications == ((ose_key(2), 0), (ose_key(0), 2))
    assert effects.view.ore == 2
    assert effects.view.tre == effects.view.ore


def test_splice_is_idempotent_on_redelivery():
    view = member(me=1, ose=0, ore=2)
    effects = handle_new_ore(view, 2)
    assert effects.view == view
    assert effects.publications == ()


def test_ose_answer_completes_the_join():
    joining = join(2).view
    joining = handle_delivery(joining, arrivals_sample(0)).view
    joining = handle_delivery(joining, arrivals_sample(1)).view
    joining = handle_delivery(joining, arrivals_sample(2)).view
    effects = handle_ose_update(joining, 0)
    view = effects.view
    assert not view.joining
    assert (view.ose, view.ore) == (1, 0)
    assert ARRIVALS_KEY in effects.unsubscribe
    assert mybox_key(0) in effects.subscribe


def test_new_sender_update_repoints_ose():
    view = member(me=0, ose=1, ore=1)
    effects = handle_ose_update(view, 2)
    assert effects.view.ose == 2
    assert effects.publications == ()


# -- toggling -------------------------------------------------------------------


def test_leaving_forwards_readers_to_the_receiver():
    effects = set_unavailable(member(me=1, ose=0, ore=2))
    assert effects.publications == ((mybox_key(1), 2),)
    assert effects.view.available is False
    assert effects.view.last_mybox == 2


def test_last_node_leaving_empties_the_system():
    effects = set_unavailable(member(me=0, ose=0, ore=0))  # ring of one
    assert effects.publications == ((mybox_key(0), None),)
    assert effects.view.tre is None
    assert ONEBACK_KEY in effects.subscribe

    lone = member(me=1, ose=0, ore=2, tre=1, available=True)
    effects = set_unavailable(lone)
    assert effects.publications == ((mybox_key(1), None),)
    assert effects.view.tre is None


def test_toggle_preconditions():
    with pytest.raises(ProtocolError):
        set_unavailable(member(me=1, ose=0, ore=2, available=False))
    with pytest.raises(ProtocolError):
        set_available(member(me=1, ose=0, ore=2, available=True))
    with pytest.raises(ProtocolError):
        set_unavailable(join(1).view)


def test_returning_announces_itself():
    view = member(me=1, ose=0, ore=2, available=False, last_mybox=2)
    effects = set_available(view)
    assert effects.publications == ((mybox_key(1), 1),)
    assert effects.view.available is True


def test_first_return_wakes_the_empty_system():
    view = member(me=1, ose=0, ore=2, tre=None, available=False, last_mybox=None)
    effects = set_available(view)
    assert effects.publications == (
        (ONEBACK_KEY, 1),
        (mybox_key(1), 1),
    )
    assert effects.view.tre == 1
    assert ONEBACK_KEY in effects.unsubscribe


# -- propagation -----------------------------------------------------------------


def test_receiver_news_retargets_an_available_node_silently():
    view = member(me=1, ose=0, ore=2)
    effects = on_mybox_from_ore(view, 4)
    assert effects.view.tre == 4
    assert effects.publications == ()
    assert mybox_key(4) in effects.subscribe


def test_receiver_recovery_restores_trust():
    view = member(me=1, ose=0, ore=2, tre=4)
    effects = on_mybox_from_ore(view, 2)
    assert effects.view.tre == effects.view.ore
    assert mybox_key(4) in effects.unsubscribe


def test_down_node_propagates_receiver_news_backwards():
    view = member(me=1, ose=0, ore=2, available=False, last_mybox=2)
    effects = on_mybox_from_ore(view, 4)
    assert effects.publications == ((mybox_key(1), 4),)
    assert effects.view.last_mybox == 4


def test_propagation_stops_at_an_already_published_value():
    view = member(me=1, ose=0, ore=2, available=False, last_mybox=4)
    effects = on_mybox_from_ore(view, 4)
    assert effects.publications == ()
    assert effects.view.tre == 4


def test_an_equal_but_not_interned_value_still_stops_propagation():
    """The stop rule compares values, not objects: a last_mybox equal to the
    value the news names, but a different object (ints above 256 are not
    cached), still stops the republication."""
    published, news = int("1000"), int("1000")
    assert published is not news and published == news
    view = member(me=1, ose=0, ore=2, available=False, last_mybox=published)
    effects = on_mybox_from_ore(view, news)
    assert effects.publications == ()
    assert effects.view.last_mybox is published


def test_known_receiver_news_returns_the_same_view_and_no_effects():
    """An Available node told the next-available node it already holds gets
    back its own view object, unchanged, and nothing to do."""
    for view, msg in [
        (member(me=1, ose=0, ore=2, tre=4), 4),
        (member(me=1, ose=0, ore=2), 2),
    ]:
        effects = handle_delivery(view, Sample(mybox_key(2), msg, 2, 1))
        assert type(effects) is protocol.Effects
        assert effects.view is view
        assert effects[1:] == ((), (), ())


def test_news_naming_me_is_never_forwarded():
    """A down node named by its receiver has seen its own down wave wrap the
    ring: it marks the system empty and publishes None, not the news."""
    view = member(me=1, ose=0, ore=2, available=False, last_mybox=2)
    effects = on_mybox_from_ore(view, 1)
    assert effects.view.tre is None
    assert effects.publications == ((mybox_key(1), None),)
    assert effects.subscribe == (ONEBACK_KEY,)
    # A None already published is not published again.
    quiet = member(me=1, ose=0, ore=2, available=False, last_mybox=None)
    effects = on_mybox_from_ore(quiet, 1)
    assert effects.view.tre is None
    assert effects.publications == ()


def test_null_wave_marks_the_system_empty():
    view = member(me=1, ose=0, ore=2, available=False, last_mybox=2)
    effects = on_mybox_from_ore(view, None)
    assert effects.view.tre is None
    assert effects.publications == ((mybox_key(1), None),)
    assert ONEBACK_KEY in effects.subscribe


def test_hint_news_retargets_without_republishing():
    view = member(me=1, ose=0, ore=2, tre=4, available=False, last_mybox=4)
    effects = on_mybox_from_hint(view, 6)
    assert effects.view.tre == 6
    assert effects.publications == ()
    assert mybox_key(6) in effects.subscribe
    assert mybox_key(4) in effects.unsubscribe


def test_a_down_node_named_by_its_hint_holds_hint_me_and_publishes_nothing():
    """Under interleaved toggles node 0, our hint, can go down before our own
    down news reaches it, and so names us. We adopt tre == me while down and
    publish nothing, although published_hint of that view is None; news on
    the receiver's stream replaces the hint later. This pins the handler as
    it is."""
    view = member(me=1, ose=0, ore=2, tre=0, available=False, last_mybox=0)
    effects = handle_delivery(view, Sample(mybox_key(0), 1, 0, 2))
    assert effects.view.tre == 1
    assert effects.view.available is False
    assert effects.publications == ()
    assert published_hint(effects.view) is None
    assert effects.unsubscribe == (mybox_key(0),) and effects.subscribe == ()


def test_hint_news_requires_a_hint():
    with pytest.raises(ProtocolError):
        on_mybox_from_hint(member(me=1, ose=0, ore=2), 6)


def test_wakeup_adopts_the_recoverer():
    view = member(me=1, ose=0, ore=2, tre=None, available=False, last_mybox=None)
    effects = on_oneback(view, 5)
    assert effects.view.tre == 5
    assert effects.publications == ((mybox_key(1), 5),)
    assert ONEBACK_KEY in effects.unsubscribe


def test_wakeup_ignores_the_own_echo():
    view = member(me=1, ose=0, ore=2, tre=None, available=False, last_mybox=None)
    effects = on_oneback(view, 1)
    assert effects.view == view
    assert effects.publications == ()


def test_wakeup_outside_system_empty_is_an_error():
    with pytest.raises(ProtocolError):
        on_oneback(member(me=1, ose=0, ore=2), 5)
    # The wake-up channel names the recoverer; None is never news on it.
    empty = member(me=1, ose=0, ore=2, tre=None, available=False)
    with pytest.raises(ProtocolError):
        on_oneback(empty, None)


# -- routing ---------------------------------------------------------------------


def test_deliveries_route_by_key():
    view = member(me=1, ose=0, ore=2)
    sample = Sample(key=mybox_key(2), payload=4, publisher=2, seq=1)
    assert handle_delivery(view, sample).view.tre == 4


def test_misrouted_samples_are_rejected():
    view = member(me=1, ose=0, ore=2)
    stray = Sample(key=mybox_key(9), payload=4, publisher=9, seq=1)
    with pytest.raises(ProtocolError):
        handle_delivery(view, stray)
    wrong_instance = Sample(key=ore_key(5), payload=7, publisher=7, seq=1)
    with pytest.raises(ProtocolError):
        handle_delivery(view, wrong_instance)


# -- properties -------------------------------------------------------------------

node_ids = st.integers(0, 5)


def tres(ore):
    """Trust the receiver `ore`, a hint at any node, or nothing Available."""
    return st.one_of(st.just(ore), node_ids, st.none())


availability = st.booleans()
mybox_values = st.one_of(st.none(), node_ids)
messages = st.one_of(st.none(), node_ids)


@st.composite
def settled_views(draw):
    ore = draw(node_ids)
    return NodeView(
        me=draw(node_ids),
        ose=draw(node_ids),
        ore=ore,
        tre=draw(tres(ore)),
        available=draw(availability),
        last_mybox=draw(mybox_values),
    )


@st.composite
def joining_views(draw, me):
    """A joining view of node `me` as the engine hands one to a join
    handler: join() trusts `me` itself, and the replayed arrival records
    may have set a sender and an insertion point."""
    return NodeView(
        me=me, ose=draw(node_ids), ore=me, tre=me, available=True, last_mybox=me,
        joining=True, predecessor=draw(st.one_of(st.none(), node_ids)),
    )


def trace_order(keys):
    """Subscription keys as the trace lists them: by topic name, then by
    instance."""
    return tuple(
        sorted(keys, key=lambda k: (k.topic.value, -1 if k.instance is None else k.instance))
    )


def assert_exact_change(old, effects):
    """The subscription changes from `old` to effects.view are exactly the
    set differences of subscriptions(), in trace order."""
    before, after = subscriptions(old), subscriptions(effects.view)
    assert effects.subscribe == trace_order(after - before)
    assert effects.unsubscribe == trace_order(before - after)


@settings(max_examples=500, deadline=None)
@given(data=st.data(), me=node_ids)
def test_join_handlers_change_exactly_the_subscription_set_difference(data, me):
    """Each join handler's subscription changes are the set differences of
    subscriptions(), in trace order, on the inputs an engine can give it:
    arrival records and the splice answer reach a joining view; a splice
    request and a new sender reach a settled view of any tre, and the
    joiner is never our hint (it is not on the ring). A join subscribes to
    exactly its joining view's set."""
    joining = data.draw(joining_views(me))
    who = data.draw(st.one_of(st.just(me), node_ids))
    assert_exact_change(joining, protocol._on_arrivals(joining, who))
    assert_exact_change(joining, handle_ose_update(joining, who))
    settled = data.draw(settled_views())
    joiner = data.draw(node_ids.filter(
        lambda n: n == settled.me or n == settled.ore or n != settled.tre
    ))
    assert_exact_change(settled, handle_new_ore(settled, joiner))
    assert_exact_change(settled, handle_ose_update(settled, who))
    joined = join(me)
    assert joined.subscribe == trace_order(subscriptions(joined.view))


@settings(max_examples=500, deadline=None)
@given(data=st.data(), view=settled_views())
def test_status_diff_is_the_subscription_set_difference(data, view):
    """A status change of a settled view, to any tre (nothing Available, the
    node itself and its receiver included) and either availability, changes
    exactly the set differences of subscriptions(), in trace order."""
    tre = data.draw(st.one_of(tres(view.ore), st.just(view.me)))
    available = data.draw(availability)
    last_mybox = data.draw(mybox_values)
    publications = ((mybox_key(view.me), last_mybox),)
    effects = protocol._status(view, tre, available, last_mybox, publications)
    new = view._replace(tre=tre, available=available, last_mybox=last_mybox)
    assert effects.view == new
    assert effects.publications == publications
    assert_exact_change(view, effects)


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
    assume(view.ore != view.me + 1)  # a hint names a node other than the receiver
    view = NodeView(
        me=view.me, ose=view.ose, ore=view.ore,
        tre=view.me + 1, available=view.available, last_mybox=view.last_mybox,
    )
    first = on_mybox_from_hint(view, msg)
    if first.view.tre is None or first.view.tre == first.view.ore:
        return  # the hint resolved to trust or to nothing; the subscription is gone
    second = on_mybox_from_hint(first.view, msg)
    assert second.view == first.view
    assert second.publications == ()


@settings(max_examples=200, deadline=None)
@given(view=settled_views(), who=node_ids)
def test_wakeup_is_idempotent(view, who):
    view = NodeView(
        me=view.me, ose=view.ose, ore=view.ore,
        tre=None, available=view.available, last_mybox=view.last_mybox,
    )
    first = on_oneback(view, who)
    if first.view.tre is None:
        # Own echo: redelivery is possible and must stay a no-op. Once a
        # recoverer is adopted the wake-up subscription is gone instead.
        second = on_oneback(first.view, who)
        assert second.view == first.view
        assert second.publications == ()


@settings(max_examples=200, deadline=None)
@given(view=settled_views(), joiner=node_ids)
def test_splice_is_idempotent(view, joiner):
    first = handle_new_ore(view, joiner)
    second = handle_new_ore(first.view, joiner)
    assert second.view == first.view
    assert second.publications == ()


@settings(max_examples=200, deadline=None)
@given(view=settled_views(), msg=messages)
def test_handlers_never_mutate_their_input(view, msg):
    snapshot = NodeView(
        me=view.me, ose=view.ose, ore=view.ore,
        tre=view.tre, available=view.available, last_mybox=view.last_mybox,
    )
    on_mybox_from_ore(view, msg)
    assert view == snapshot
