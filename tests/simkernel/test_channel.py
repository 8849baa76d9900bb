"""Tests for timestamped channels."""

import pytest

from repro.simkernel import (
    Channel,
    DeadlockError,
    SimError,
    SimKernel,
    SimThreadFailed,
)


def test_receive_already_arrived_message():
    k = SimKernel()
    ch = Channel(k)
    got = {}

    def sender():
        ch.push("hello", arrival=0.0)

    def receiver():
        k.advance(1.0)
        env = ch.receive()
        got["payload"] = env.payload
        got["time"] = k.now()

    k.spawn(sender)
    k.spawn(receiver)
    k.run()
    assert got == {"payload": "hello", "time": 1.0}


def test_receive_blocks_until_arrival():
    k = SimKernel()
    ch = Channel(k)
    got = {}

    def sender():
        k.advance(2.0)
        ch.push("late", arrival=5.0)

    def receiver():
        env = ch.receive()
        got["payload"] = env.payload
        got["time"] = k.now()

    k.spawn(receiver)
    k.spawn(sender)
    k.run()
    assert got == {"payload": "late", "time": 5.0}


def test_messages_received_in_arrival_order_not_send_order():
    k = SimKernel()
    ch = Channel(k)
    order = []

    def sender():
        ch.push("second", arrival=10.0)
        ch.push("first", arrival=3.0)

    def receiver():
        for _ in range(2):
            order.append(ch.receive().payload)

    k.spawn(sender)
    k.spawn(receiver)
    k.run()
    assert order == ["first", "second"]


def test_equal_arrival_preserves_send_order():
    k = SimKernel()
    ch = Channel(k)
    order = []

    def sender():
        for i in range(5):
            ch.push(i, arrival=1.0)

    def receiver():
        for _ in range(5):
            order.append(ch.receive().payload)

    k.spawn(sender)
    k.spawn(receiver)
    k.run()
    assert order == [0, 1, 2, 3, 4]


def test_matched_receive_skips_nonmatching():
    k = SimKernel()
    ch = Channel(k)
    got = []

    def sender():
        ch.push({"tag": 1, "v": "a"}, arrival=0.0)
        ch.push({"tag": 2, "v": "b"}, arrival=0.0)

    def receiver():
        env = ch.receive(match=lambda e: e.payload["tag"] == 2)
        got.append(env.payload["v"])
        env = ch.receive()
        got.append(env.payload["v"])

    k.spawn(sender)
    k.spawn(receiver)
    k.run()
    assert got == ["b", "a"]


def test_poll_returns_none_when_empty_or_in_flight():
    k = SimKernel()
    ch = Channel(k)
    results = []

    def body():
        results.append(ch.poll())          # empty
        ch.push("x", arrival=5.0)
        results.append(ch.poll())          # in flight (now=0 < 5)
        k.advance(5.0)
        results.append(ch.poll().payload)  # arrived

    k.spawn(body)
    k.run()
    assert results == [None, None, "x"]


def test_peek_does_not_consume():
    k = SimKernel()
    ch = Channel(k)

    def body():
        ch.push("x", arrival=0.0)
        assert ch.peek().payload == "x"
        assert ch.peek().payload == "x"
        assert ch.poll().payload == "x"
        assert ch.peek() is None

    k.spawn(body)
    k.run()


def test_receiver_woken_by_earlier_message_while_waiting_for_later():
    """A receiver blocked on a message arriving at t=10 must take a message
    arriving at t=4 that is sent while it sleeps."""
    k = SimKernel()
    ch = Channel(k)
    order = []

    def slow_sender():
        ch.push("slow", arrival=10.0)

    def fast_sender():
        k.advance(1.0)
        ch.push("fast", arrival=4.0)

    def receiver():
        order.append((ch.receive().payload, k.now()))
        order.append((ch.receive().payload, k.now()))

    k.spawn(slow_sender)
    k.spawn(receiver)
    k.spawn(fast_sender)
    k.run()
    assert order == [("fast", 4.0), ("slow", 10.0)]


def test_second_blocked_receiver_is_refused():
    """A channel has one receiver: a second thread that would block on it
    fails, and the first one's slot is cleared when it is torn down."""
    k = SimKernel()
    ch = Channel(k)

    k.spawn(lambda: ch.receive(), name="r1")
    k.spawn(lambda: ch.receive(), name="r2")
    with pytest.raises(SimThreadFailed, match="r2") as ei:
        k.run()
    assert isinstance(ei.value.original, SimError)
    assert "r1 is already waiting" in str(ei.value.original)
    assert ch._waiter is None


def test_nonmatching_push_leaves_predicate_receiver_asleep():
    """A push wakes the receiver only when the new message matches its
    predicate: the receiver, waiting on a tag-2 message due at t=10,
    sleeps through a tag-1 push and resumes once, at a tag-2 arrival."""
    log = []
    k = SimKernel(trace=log.append)
    ch = Channel(k)
    got = {}

    def receiver():
        env = ch.receive(match=lambda e: e.payload[0] == 2)
        got["taken"] = (env.payload, k.now())
        got["tag1"] = ch.peek(match=lambda e: e.payload[0] == 1)

    def sender():
        ch.push((1, "early"), arrival=1.0)
        ch.push((2, "sooner"), arrival=4.0)

    k.spawn(lambda: ch.push((2, "late"), arrival=10.0), name="slow")
    k.spawn(receiver, name="rx")
    k.spawn(sender, name="tx")
    k.run()
    assert [line for line in log if line.endswith("resume rx")] == [
        "[0.000000] resume rx", "[4.000000] resume rx"]
    assert got["taken"] == ((2, "sooner"), 4.0)
    assert got["tag1"].payload == (1, "early")
    assert len(ch) == 2


def test_receive_with_no_sender_deadlocks():
    k = SimKernel()
    ch = Channel(k)
    k.spawn(lambda: ch.receive(), name="lonely")
    with pytest.raises(DeadlockError, match="lonely"):
        k.run()


def test_channel_len():
    k = SimKernel()
    ch = Channel(k)

    def body():
        assert len(ch) == 0
        ch.push(1, arrival=0.0)
        ch.push(2, arrival=9.0)
        assert len(ch) == 2
        ch.poll()
        assert len(ch) == 1

    k.spawn(body)
    k.run()
