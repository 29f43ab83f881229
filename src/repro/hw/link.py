"""Point-to-point Ethernet links.

A :class:`Link` is full-duplex: each direction is an independent
:class:`_Channel` with FIFO serialization at the link rate plus a fixed
propagation delay.  Optional random loss models an unreliable fabric for the
§4.5 retransmission experiments.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Optional, Tuple

from ..sim import Environment, Timer, wire_time_ns
from ..net.frame import EthernetFrame

__all__ = ["Link", "LinkEndpoint"]


class _Channel:
    """One direction of a link: serialize, propagate, deliver."""

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
        self._frames: Deque[EthernetFrame] = deque()
        self._idle = False  # waiting for a frame: the next send() wakes
        self._got = Timer(env, self._on_got)
        self._wire = Timer(env, self._on_wire)
        env.call_soon(self._next)

    def send(self, frame: EthernetFrame) -> None:
        self._frames.append(frame)
        if self._idle:
            self._next()

    def _next(self) -> None:
        """Take the next frame, or idle until ``send``."""
        self._idle = not self._frames
        if self._frames:
            self._got.fire()

    def _on_got(self, timer: Timer) -> None:
        frame = self._frames.popleft()
        self._wire.fire(wire_time_ns(frame.wire_bytes, self.gbps), frame)

    def _on_wire(self, timer: Timer) -> None:
        frame = timer.value
        self.frames_sent += 1
        self.bytes_sent += frame.wire_bytes
        if self.down or (self.loss_probability > 0.0 and self.rng is not None
                         and self.rng.random() < self.loss_probability):
            self.frames_dropped += 1
        else:
            self.env.call_soon(self._arrive(frame), delay=self.propagation_ns)
        self._next()

    def _arrive(self, frame: EthernetFrame) -> Callable[[], None]:
        def deliver() -> None:
            if self.deliver is None:
                raise RuntimeError("link channel has no receiver attached")
            self.deliver(frame)
        return deliver


class LinkEndpoint:
    """One end of a link: transmit here, receive via an attached callback."""

    def __init__(self, tx_channel: _Channel, rx_channel: _Channel,
                 name: str = "") -> None:
        self._tx = tx_channel
        self._rx = rx_channel
        self.name = name

    @property
    def gbps(self) -> float:
        return self._tx.gbps

    def transmit(self, frame: EthernetFrame) -> None:
        """Queue a frame for serialization onto the wire."""
        self._tx.send(frame)

    def attach_receiver(self, deliver: Callable[[EthernetFrame], None]) -> None:
        """Set the callback invoked for every frame arriving at this end."""
        self._rx.deliver = deliver

    @property
    def tx_frames(self) -> int:
        return self._tx.frames_sent

    @property
    def tx_bytes(self) -> int:
        return self._tx.bytes_sent

    @property
    def tx_dropped(self) -> int:
        return self._tx.frames_dropped


class Link:
    """A full-duplex point-to-point Ethernet cable.

    Parameters
    ----------
    gbps:
        Line rate of each direction.
    propagation_ns:
        One-way propagation plus PHY latency.
    loss_probability:
        Independent per-frame drop probability (0 = reliable).
    """

    def __init__(self, env: Environment, gbps: float = 10.0,
                 propagation_ns: int = 500, loss_probability: float = 0.0,
                 rng: Optional[random.Random] = None, name: str = "") -> None:
        if gbps <= 0:
            raise ValueError(f"link rate must be positive, got {gbps}")
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(f"loss probability out of range: {loss_probability}")
        if loss_probability > 0.0 and rng is None:
            raise ValueError("lossy link requires an RNG stream")
        self.name = name
        forward = _Channel(env, gbps, propagation_ns, loss_probability, rng)
        backward = _Channel(env, gbps, propagation_ns, loss_probability, rng)
        self._forward = forward
        self._backward = backward
        self._initial = (loss_probability, rng)
        self.side_a = LinkEndpoint(forward, backward, name=f"{name}/a")
        self.side_b = LinkEndpoint(backward, forward, name=f"{name}/b")

    @property
    def endpoints(self) -> Tuple[LinkEndpoint, LinkEndpoint]:
        return self.side_a, self.side_b

    @property
    def down(self) -> bool:
        return self._forward.down

    @property
    def frames_dropped(self) -> int:
        return self._forward.frames_dropped + self._backward.frames_dropped

    # -- runtime fault state (degradation windows, blackouts) ---------------

    def set_loss(self, probability: float,
                 rng: Optional[random.Random] = None) -> None:
        """Degrade both directions to the given per-frame drop probability.

        The construction-time invariants hold here too: probabilities live
        in [0, 1) and a nonzero probability needs an RNG (pass one, or rely
        on the RNG the link was built with).
        """
        if not 0.0 <= probability < 1.0:
            raise ValueError(f"loss probability out of range: {probability}")
        for channel in (self._forward, self._backward):
            if rng is not None:
                channel.rng = rng
            if probability > 0.0 and channel.rng is None:
                raise ValueError("lossy link requires an RNG stream")
            channel.loss_probability = probability

    def set_down(self, down: bool = True) -> None:
        """Blackout: drop every frame in both directions until restored."""
        self._forward.down = down
        self._backward.down = down

    def restore(self) -> None:
        """Clear any fault state back to the construction-time behaviour."""
        loss, rng = self._initial
        for channel in (self._forward, self._backward):
            channel.down = False
            channel.loss_probability = loss
            channel.rng = rng
