//! One campaign's event ring: the last `capacity` sequenced events, kept
//! once and read by every `watch`.
//!
//! The engine publishes into an [`EventRing`]; each `watch` holds a
//! [`Subscriber`], which is only a cursor — the seq it wants next. A
//! receive returns the first retained event at or after the cursor. When
//! the ring has already dropped events the cursor still wanted, the
//! receive first reports the gap as [`Recv::Lagged`] and moves the cursor
//! past it, so one stalled client can never block the engine, and no
//! client holds events of its own.

use crate::service::protocol::{Event, SeqEvent};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Everything behind the ring's mutex.
struct Ring {
    events: VecDeque<SeqEvent>,
    capacity: usize,
    /// The seq of the last published event (0 = none yet).
    last_seq: u64,
    closed: bool,
}

impl Ring {
    /// What a subscriber at `cursor` receives now, advancing the cursor,
    /// or `None` when it must wait for the next publish.
    fn read(&self, cursor: &mut u64) -> Option<Recv> {
        // Seqs the numbering skipped count as missed, like dropped ones.
        let first_retained = self.events.front().map_or(self.last_seq + 1, |e| e.seq);
        if *cursor < first_retained {
            let missed = first_retained - *cursor;
            *cursor = first_retained;
            return Some(Recv::Lagged(missed));
        }
        // Seqs ascend but may skip (see `EventRing::skip`), so search.
        let at = self.events.partition_point(|e| e.seq < *cursor);
        if let Some(event) = self.events.get(at) {
            *cursor = event.seq + 1;
            return Some(Recv::Event(event.clone()));
        }
        self.closed.then_some(Recv::Closed)
    }
}

type Shared = (Mutex<Ring>, Condvar);

fn lock(shared: &Shared) -> MutexGuard<'_, Ring> {
    shared.0.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a [`Subscriber`] receive produced.
#[derive(Debug, PartialEq)]
pub enum Recv {
    /// The next event.
    Event(SeqEvent),
    /// This subscriber fell behind the ring: the carried count of seqs
    /// before the oldest retained event will never be delivered.
    Lagged(u64),
    /// Nothing available within the timeout (the ring is still open).
    Empty,
    /// The ring closed and every retained event past the cursor has been
    /// delivered.
    Closed,
}

/// The receiving half: a cursor into one campaign's ring.
pub struct Subscriber {
    shared: Arc<Shared>,
    cursor: u64,
}

impl Subscriber {
    /// Waits up to `timeout` for the next event. Lag is reported before
    /// the events that survived it, so a client always learns it missed
    /// something before seeing what came after the gap.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Recv {
        let mut ring = lock(&self.shared);
        let mut timed_out = false;
        loop {
            if let Some(recv) = ring.read(&mut self.cursor) {
                return recv;
            }
            if timed_out {
                return Recv::Empty;
            }
            let (next, wait) = self
                .shared
                .1
                .wait_timeout(ring, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            ring = next;
            timed_out = wait.timed_out();
        }
    }
}

/// The publishing half, owned by the engine: stamps each event with the
/// next seq and retains the last `capacity` of them.
pub struct EventRing {
    shared: Arc<Shared>,
}

impl EventRing {
    /// An empty open ring whose next event is numbered `last_seq + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, last_seq: u64) -> Self {
        assert!(capacity >= 1, "a ring retains at least one event");
        let ring = Ring {
            events: VecDeque::new(),
            capacity,
            last_seq,
            closed: false,
        };
        EventRing {
            shared: Arc::new((Mutex::new(ring), Condvar::new())),
        }
    }

    /// Stamps `event` with the next seq, retains it (dropping the oldest
    /// event of a full ring) and wakes every waiting subscriber.
    pub fn publish(&self, event: Event) {
        let mut ring = lock(&self.shared);
        ring.last_seq += 1;
        let seq = ring.last_seq;
        if ring.events.len() == ring.capacity {
            ring.events.pop_front();
        }
        ring.events.push_back(SeqEvent { seq, event });
        drop(ring);
        self.shared.1.notify_all();
    }

    /// Moves the numbering `seqs` ahead without publishing anything.
    pub fn skip(&self, seqs: u64) {
        lock(&self.shared).last_seq += seqs;
    }

    /// The seq of the last published event (0 = none yet).
    pub fn last_seq(&self) -> u64 {
        lock(&self.shared).last_seq
    }

    /// Closes the ring: subscribers still receive the retained events
    /// past their cursors, then [`Recv::Closed`].
    pub fn close(&self) {
        lock(&self.shared).closed = true;
        self.shared.1.notify_all();
    }

    /// A subscriber whose cursor is `from_seq` (0 reads as 1: everything).
    pub fn subscribe(&self, from_seq: u64) -> Subscriber {
        Subscriber {
            shared: Arc::clone(&self.shared),
            cursor: from_seq.max(1),
        }
    }
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing").finish_non_exhaustive()
    }
}

impl std::fmt::Debug for Subscriber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscriber")
            .field("cursor", &self.cursor)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: Duration = Duration::from_millis(50);

    fn ping(campaign: u64) -> Event {
        Event::Cancelled { campaign }
    }

    fn event(seq: u64) -> Recv {
        Recv::Event(SeqEvent {
            seq,
            event: ping(seq),
        })
    }

    #[test]
    fn events_fan_out_to_every_subscriber_in_order() {
        let ring = EventRing::new(8, 0);
        let mut a = ring.subscribe(0);
        let mut b = ring.subscribe(1);
        for seq in 1..=3 {
            ring.publish(ping(seq));
        }
        for sub in [&mut a, &mut b] {
            for seq in 1..=3 {
                assert_eq!(sub.recv_timeout(TICK), event(seq));
            }
            assert_eq!(sub.recv_timeout(Duration::from_millis(1)), Recv::Empty);
        }
    }

    #[test]
    fn lagging_subscriber_drops_oldest_and_learns_the_gap() {
        let ring = EventRing::new(2, 0);
        let mut slow = ring.subscribe(1);
        for seq in 1..=5 {
            ring.publish(ping(seq));
        }
        // Capacity 2: events 1..=3 were dropped; 4 and 5 survive, and the
        // gap is reported first.
        assert_eq!(slow.recv_timeout(TICK), Recv::Lagged(3));
        assert_eq!(slow.recv_timeout(TICK), event(4));
        assert_eq!(slow.recv_timeout(TICK), event(5));
    }

    #[test]
    fn close_drains_queued_events_then_reports_closed() {
        let ring = EventRing::new(4, 0);
        let mut sub = ring.subscribe(0);
        ring.publish(ping(1));
        ring.close();
        assert_eq!(sub.recv_timeout(TICK), event(1));
        assert_eq!(sub.recv_timeout(TICK), Recv::Closed);
        // A late subscriber past the tail sees the closure immediately.
        assert_eq!(ring.subscribe(2).recv_timeout(TICK), Recv::Closed);
    }

    #[test]
    fn skipped_seqs_are_searched_past() {
        let ring = EventRing::new(4, 0);
        let mut sub = ring.subscribe(0);
        ring.publish(ping(1));
        ring.skip(3);
        ring.publish(ping(5));
        assert_eq!(sub.recv_timeout(TICK), event(1));
        assert_eq!(sub.recv_timeout(TICK), event(5));
        // A cursor inside the skipped range reads the next event past it.
        assert_eq!(ring.subscribe(3).recv_timeout(TICK), event(5));
    }

    #[test]
    fn a_ring_resumed_mid_numbering_flags_what_it_never_held() {
        let ring = EventRing::new(4, 6);
        assert_eq!(ring.subscribe(2).recv_timeout(TICK), Recv::Lagged(5));
        let mut live = ring.subscribe(7);
        ring.publish(ping(7));
        assert_eq!(live.recv_timeout(TICK), event(7));
    }

    #[test]
    fn recv_wakes_on_publish_from_another_thread() {
        let ring = Arc::new(EventRing::new(4, 0));
        let mut sub = ring.subscribe(0);
        let publisher = std::thread::spawn({
            let ring = Arc::clone(&ring);
            move || {
                std::thread::sleep(Duration::from_millis(20));
                ring.publish(ping(1));
            }
        });
        assert_eq!(sub.recv_timeout(Duration::from_secs(5)), event(1));
        publisher.join().unwrap();
    }
}
