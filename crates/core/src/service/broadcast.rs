//! A bounded broadcast channel with lagging-client drop semantics.
//!
//! One [`EventBus`] per campaign fans progress events out to every
//! `watch` subscriber. Each subscriber owns a bounded queue; when a
//! publish finds a queue full, the **oldest** queued event is dropped and
//! the subscriber's lag counter bumped, so one stalled client can never
//! block the engine or balloon daemon memory. The next receive surfaces
//! the gap as an explicit `Lagged` notification before newer events.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Duration;

struct SubQueue<T> {
    queue: VecDeque<T>,
    lagged: u64,
    closed: bool,
}

struct SubShared<T> {
    state: Mutex<SubQueue<T>>,
    available: Condvar,
}

/// The receiving half of one subscription.
pub struct Subscriber<T> {
    shared: Arc<SubShared<T>>,
    capacity: usize,
}

/// What a [`Subscriber`] receive produced.
#[derive(Debug, PartialEq, Eq)]
pub enum Recv<T> {
    /// The next event.
    Event(T),
    /// This subscriber fell behind: `0` events were silently dropped —
    /// the count is carried — before the ones still queued.
    Lagged(u64),
    /// Nothing available within the timeout (the bus is still open).
    Empty,
    /// The bus closed and every queued event has been delivered.
    Closed,
}

impl<T> Subscriber<T> {
    /// Waits up to `timeout` for the next event. Lag is reported before
    /// the events that survived it, so a client always learns it missed
    /// something before seeing what came after the gap.
    pub fn recv_timeout(&self, timeout: Duration) -> Recv<T> {
        let mut state = self
            .shared
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if state.lagged > 0 {
                let missed = state.lagged;
                state.lagged = 0;
                return Recv::Lagged(missed);
            }
            if let Some(event) = state.queue.pop_front() {
                return Recv::Event(event);
            }
            if state.closed {
                return Recv::Closed;
            }
            let (next, wait) = self
                .shared
                .available
                .wait_timeout(state, timeout)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state = next;
            if wait.timed_out() && state.queue.is_empty() && state.lagged == 0 && !state.closed {
                return Recv::Empty;
            }
        }
    }

    /// This subscription's queue capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// The publishing half: a bounded broadcast bus. Cloning shares the bus.
pub struct EventBus<T> {
    subscribers: Arc<Mutex<Vec<Weak<SubShared<T>>>>>,
    capacity: usize,
    closed: Arc<Mutex<bool>>,
}

impl<T> Clone for EventBus<T> {
    fn clone(&self) -> Self {
        EventBus {
            subscribers: Arc::clone(&self.subscribers),
            capacity: self.capacity,
            closed: Arc::clone(&self.closed),
        }
    }
}

impl<T: Clone> EventBus<T> {
    /// A bus whose subscribers each buffer at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "a subscriber buffers at least one event");
        EventBus {
            subscribers: Arc::new(Mutex::new(Vec::new())),
            capacity,
            closed: Arc::new(Mutex::new(false)),
        }
    }

    /// Registers a new subscriber. Subscribing to an already-closed bus
    /// yields a subscriber that immediately reports [`Recv::Closed`].
    pub fn subscribe(&self) -> Subscriber<T> {
        let closed = *lock(&self.closed);
        let shared = Arc::new(SubShared {
            state: Mutex::new(SubQueue {
                queue: VecDeque::with_capacity(self.capacity),
                lagged: 0,
                closed,
            }),
            available: Condvar::new(),
        });
        lock(&self.subscribers).push(Arc::downgrade(&shared));
        Subscriber {
            shared,
            capacity: self.capacity,
        }
    }

    /// Delivers `event` to every live subscriber, dropping the oldest
    /// queued event (and bumping the lag counter) of any full one.
    /// Dead subscribers are reaped in passing.
    pub fn publish(&self, event: &T) {
        let mut subscribers = lock(&self.subscribers);
        subscribers.retain(|weak| {
            let Some(shared) = weak.upgrade() else {
                return false;
            };
            let mut state = lock(&shared.state);
            if state.closed {
                return true;
            }
            if state.queue.len() >= self.capacity {
                state.queue.pop_front();
                state.lagged += 1;
            }
            state.queue.push_back(event.clone());
            drop(state);
            shared.available.notify_all();
            true
        });
    }

    /// Closes the bus: queued events still drain, then every subscriber
    /// (current and future) reports [`Recv::Closed`].
    pub fn close(&self) {
        *lock(&self.closed) = true;
        let subscribers = lock(&self.subscribers);
        for weak in subscribers.iter() {
            if let Some(shared) = weak.upgrade() {
                lock(&shared.state).closed = true;
                shared.available.notify_all();
            }
        }
    }

    /// How many subscribers are currently alive.
    #[cfg(test)]
    pub fn subscriber_count(&self) -> usize {
        let mut subscribers = lock(&self.subscribers);
        subscribers.retain(|weak| weak.upgrade().is_some());
        subscribers.len()
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl<T> std::fmt::Debug for EventBus<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl<T> std::fmt::Debug for Subscriber<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscriber")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: Duration = Duration::from_millis(50);

    #[test]
    fn events_fan_out_to_every_subscriber_in_order() {
        let bus = EventBus::new(8);
        let a = bus.subscribe();
        let b = bus.subscribe();
        for i in 0..3 {
            bus.publish(&i);
        }
        for sub in [&a, &b] {
            for i in 0..3 {
                assert_eq!(sub.recv_timeout(TICK), Recv::Event(i));
            }
            assert_eq!(sub.recv_timeout(Duration::from_millis(1)), Recv::Empty);
        }
    }

    #[test]
    fn lagging_subscriber_drops_oldest_and_learns_the_gap() {
        let bus = EventBus::new(2);
        let slow = bus.subscribe();
        for i in 0..5 {
            bus.publish(&i);
        }
        // Capacity 2: events 0..3 were dropped; 3 and 4 survive, and the
        // gap is reported first.
        assert_eq!(slow.recv_timeout(TICK), Recv::Lagged(3));
        assert_eq!(slow.recv_timeout(TICK), Recv::Event(3));
        assert_eq!(slow.recv_timeout(TICK), Recv::Event(4));
    }

    #[test]
    fn close_drains_queued_events_then_reports_closed() {
        let bus = EventBus::new(4);
        let sub = bus.subscribe();
        bus.publish(&7);
        bus.close();
        assert_eq!(sub.recv_timeout(TICK), Recv::Event(7));
        assert_eq!(sub.recv_timeout(TICK), Recv::Closed);
        // A late subscriber sees the closure immediately.
        assert_eq!(bus.subscribe().recv_timeout(TICK), Recv::Closed);
    }

    #[test]
    fn dropped_subscribers_are_reaped() {
        let bus = EventBus::new(4);
        let keep = bus.subscribe();
        drop(bus.subscribe());
        bus.publish(&1);
        assert_eq!(bus.subscriber_count(), 1);
        assert_eq!(keep.recv_timeout(TICK), Recv::Event(1));
    }

    #[test]
    fn recv_wakes_on_publish_from_another_thread() {
        let bus = EventBus::new(4);
        let sub = bus.subscribe();
        let publisher = std::thread::spawn({
            let bus = bus.clone();
            move || {
                std::thread::sleep(Duration::from_millis(20));
                bus.publish(&99);
            }
        });
        assert_eq!(sub.recv_timeout(Duration::from_secs(5)), Recv::Event(99));
        publisher.join().unwrap();
    }
}
