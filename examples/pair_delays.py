#!/usr/bin/env python
"""When does a pair of peers get a channel?

The paper's figures assume "reliable high-speed channels": no loss, no
link fault, one constant one-way delay δ per directed pair.  Such a pair
has no state to keep, so the overlay records it as one float, its delay,
in ``overlay.delays``, and a send on it is one scheduled delivery.  A
pair keeps a :class:`~repro.net.Channel` (a loss model, a link fault, its
own RNG stream) only when the run gives it one: a loss model — even the
lossless ``LossSpec("none")`` — a link fault, or a latency that draws per
message.

This example runs one Fig. 10 cell both ways and shows that the delay
rows and the reliable channels deliver the same run, per packet and per
media batch, and that ``overlay.channel()`` on a delay row reads the
recorded delay instead of drawing a new one.

Run:  python examples/pair_delays.py
"""

from repro import LossSpec, ProtocolConfig, ProtocolSpec, SessionSpec


def cell(media_batch: float, loss=None):
    spec = SessionSpec(
        config=ProtocolConfig(n=20, H=8, content_packets=600, seed=7),
        protocol=ProtocolSpec("dcop"),
        media_batch=media_batch,
        loss=loss,
    )
    session = spec.build()
    return session, session.run()


def main() -> None:
    print(f"{'plane':>7} | {'loss spec':>9} | {'sends':>5} | {'delay rows':>10} | "
          f"{'channels':>8} | {'rounds':>6} | {'delivery':>8} | completed at")
    print("-" * 85)
    for media_batch in (0.0, 5.0):
        plane = "batched" if media_batch else "packet"
        for loss in (None, LossSpec("none")):
            session, result = cell(media_batch, loss)
            overlay = session.overlay
            print(f"{plane:>7} | {'-' if loss is None else loss.kind:>9} | "
                  f"{overlay.traffic.total_sent():>5} | {len(overlay.delays):>10} | "
                  f"{len(overlay.channels):>8} | {result.rounds:>6} | "
                  f"{result.delivery_ratio:>8.3f} | {result.completed_at:.3f} ms")

    session, _ = cell(0.0)
    (src, dst), delay = next(iter(session.overlay.delays.items()))
    channel = session.overlay.channel(src, dst)
    print(f"\nthe first pair on the wire, {src}->{dst}, was opened as {delay:.4f} ms; "
          f"overlay.channel() builds {channel!r} over "
          f"{channel.latency!r} from that row")
    print("Without a loss model the run builds no channel at all, and the run "
          "itself is the same: same rounds, same delivery, same finish.")


if __name__ == "__main__":
    main()
