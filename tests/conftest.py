"""Test-suite configuration: Hypothesis profiles and a shared fixture.

``--hypothesis-profile=deep`` runs every property test that leaves
``max_examples`` to the profile (the plane seam matrix among them) on
1,500 examples with no per-example deadline.  The ``unanswered_address``
fixture stands in for a partitioned peer.
"""

import socket

import pytest
from hypothesis import settings

settings.register_profile("deep", max_examples=1500, deadline=None)


@pytest.fixture
def unanswered_address():
    """A local ``(host, port)`` whose connects hang until they time out.

    The listener's accept queue is full and nothing accepts, so the
    kernel drops every further SYN: a dial behaves as it would towards a
    partitioned peer, without leaving the machine."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(0)
    address = listener.getsockname()[:2]
    fillers = []
    try:
        for _ in range(8):  # fill the queue until a connect no longer lands
            filler = socket.socket()
            filler.settimeout(0.2)
            fillers.append(filler)
            try:
                filler.connect(address)
            except OSError:
                break
        else:
            pytest.fail("the listener's accept queue never filled")
        yield address
    finally:
        for sock in fillers + [listener]:
            sock.close()
