"""Fixtures and helpers that more than one test module uses."""

import pytest

from rfoverlay import protocol


@pytest.fixture
def flip_one_view(monkeypatch):
    """Patch the handler of news on a receiver's status stream so that its
    first call also flips its node's availability, which no handler may do.
    Returns the list of flipped nodes; clearing it arms the patch again."""
    original = protocol.on_mybox_from_ore
    flipped = []

    def flip_once(view, msg):
        effects = original(view, msg)
        if flipped:
            return effects
        flipped.append(view.me)
        new = effects.view
        return effects._replace(view=new._replace(available=not new.available))

    monkeypatch.setattr(protocol, "on_mybox_from_ore", flip_once)
    return flipped


def subscriptions_of(bus, subscriber):
    """The keys `subscriber` holds on `bus`: its live subscription set."""
    return frozenset(key for key, subscribers in bus._subs.items() if subscriber in subscribers)


def check_subscription_invariant(net):
    """Bus-side subscriptions must equal each view's derived set."""
    for node, view in net.views.items():
        actual = subscriptions_of(net.bus, node)
        expected = protocol.subscriptions(view)
        assert actual == expected, (
            f"subscriptions of {node} diverged: bus={sorted(map(str, actual))} "
            f"view={sorted(map(str, expected))}"
        )
