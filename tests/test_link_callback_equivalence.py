"""Oracle test: the callback-native link channel matches the pump process.

``ReferenceChannel`` below is the process-based channel (``_pump`` over a
``Store``) that ``Link`` used before each direction became a two-timer
state machine.  Identical randomized traffic — bursts from both sides,
frames sent before the first step, a seeded lossy fabric, blackouts and
restores mid-burst — must give identical deliveries, counters, RNG state
and engine step/event/callback counts.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import pytest

import repro.hw.link as link_module
from repro.hw import Link
from repro.net import EthernetFrame, MacAddress
from repro.sim import Environment, Event, Store, wire_time_ns
from repro.testing.invariants import EngineMonitor
from tests.conftest import heap_engine


class ReferenceChannel:
    """The generator-process link direction (``_pump`` over a ``Store``)."""

    def __init__(self, env: Environment, gbps: float, propagation_ns: int,
                 loss_probability: float, rng: Optional[random.Random]) -> None:
        self.env = env
        self.gbps = gbps
        self.propagation_ns = propagation_ns
        self.loss_probability = loss_probability
        self.rng = rng
        self.down = False
        self.deliver: Optional[Callable[[EthernetFrame], None]] = None
        self.frames_sent = 0
        self.frames_dropped = 0
        self.bytes_sent = 0
        self._queue: Store = Store(env)
        env.process(self._pump(), name="link-channel")

    def send(self, frame: EthernetFrame) -> None:
        self._queue.try_put(frame)

    def _pump(self) -> Generator[Event, Any, None]:
        env = self.env
        while True:
            frame = yield self._queue.get()
            yield env.timeout(wire_time_ns(frame.wire_bytes, self.gbps))
            self.frames_sent += 1
            self.bytes_sent += frame.wire_bytes
            if self.down:
                self.frames_dropped += 1
                continue
            if (self.loss_probability > 0.0 and self.rng is not None
                    and self.rng.random() < self.loss_probability):
                self.frames_dropped += 1
                continue
            env.call_soon(self._arrive(frame), delay=self.propagation_ns)

    def _arrive(self, frame: EthernetFrame) -> Callable[[], None]:
        def deliver() -> None:
            if self.deliver is None:
                raise RuntimeError("link channel has no receiver attached")
            self.deliver(frame)
        return deliver


A, B = MacAddress("a"), MacAddress("b")


def _drive(reference: bool, make_env, seed: int, loss: float,
           faults: bool, monitored: bool, monkeypatch) -> Dict[str, Any]:
    rng = random.Random(seed)            # traffic shape
    fabric_rng = random.Random(seed + 1)  # the link's loss stream
    env = make_env()
    monitor = EngineMonitor.attach(env) if monitored else None
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(link_module, "_Channel", ReferenceChannel)
        link = Link(env, gbps=rng.choice([1.0, 10.0, 40.0]),
                    propagation_ns=rng.choice([0, 500]),
                    loss_probability=loss,
                    rng=fabric_rng if loss else None)
    deliveries: List[Tuple[int, str, int]] = []
    link.side_a.attach_receiver(
        lambda f: deliveries.append((env.now, "a", f.payload)))

    def echo(frame: EthernetFrame) -> None:
        deliveries.append((env.now, "b", frame.payload))
        if frame.payload % 3 == 0:
            # Reply from inside delivery: a send from a callable step.
            link.side_b.transmit(EthernetFrame(B, A, -frame.payload, 64))

    link.side_b.attach_receiver(echo)
    sent = [0]

    def burst(side, src, dst) -> None:
        for _ in range(rng.choice([1, 2, 5, 9])):
            sent[0] += 1
            side.transmit(EthernetFrame(src, dst, sent[0],
                                        rng.choice([0, 46, 700, 1_500])))

    # Frames sent before the first step, from both sides.
    burst(link.side_a, A, B)
    burst(link.side_b, B, A)
    at = 0
    for i in range(30):
        at += rng.choice([0, 10, 200, 1_000, 5_000])
        side, src, dst = rng.choice([(link.side_a, A, B),
                                     (link.side_b, B, A)])
        env.schedule_at(at, lambda s=side, x=src, y=dst: burst(s, x, y))
        if faults and (i % 6 == 2 or rng.random() < 0.2):
            env.schedule_at(at + rng.choice([0, 1]), link.set_down)
            env.schedule_at(at + rng.choice([400, 2_000]), link.restore)
    env.run()
    out = {
        "deliveries": deliveries,
        "a": (link.side_a.tx_frames, link.side_a.tx_dropped,
              link.side_a.tx_bytes),
        "b": (link.side_b.tx_frames, link.side_b.tx_dropped,
              link.side_b.tx_bytes),
        "dropped": link.frames_dropped,
        "rng": fabric_rng.getstate(),
        "now": env.now,
    }
    if monitor is not None:
        out["monitor"] = (monitor.steps, monitor.events_processed,
                          monitor.callbacks_run)
        assert not monitor.violations
    return out


@heap_engine
@pytest.mark.parametrize("loss,faults", [(0.0, False), (0.3, False),
                                         (0.0, True), (0.2, True)])
@pytest.mark.parametrize("seed", range(4))
def test_link_matches_pump_reference(make_env, loss, faults, seed,
                                     monkeypatch):
    for monitored in (True, False):
        ref = _drive(True, make_env, seed, loss, faults, monitored,
                     monkeypatch)
        new = _drive(False, make_env, seed, loss, faults, monitored,
                     monkeypatch)
        assert new == ref
    assert ref["deliveries"]
    if loss or faults:
        assert ref["dropped"] > 0
