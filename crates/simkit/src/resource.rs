//! FIFO service resources.
//!
//! A [`Resource`] models a station with `capacity` identical servers and an
//! unbounded FIFO queue — a disk, a NIC, an I/O-node request processor.
//! Instead of maintaining an explicit waiter queue, it uses the *virtual
//! queue* technique: each server keeps the instant at which it next becomes
//! free. A request arriving at `t` is assigned the earliest-free server and
//! starts at `max(t, server_free)`; the server's free time is pushed
//! forward by the service duration. Because requests book in call order
//! (which the deterministic executor fixes), this is exactly FIFO-by-
//! arrival, and each request costs a single timer event.
//!
//! Two flavours:
//! - [`Resource::serve`] books and then sleeps until completion;
//! - [`Resource::reserve_at`] books only, returning `(start, end)`, so a
//!   caller can book many chunk services across several resources and then
//!   sleep once until the max completion (fan-out without task spawning).

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::executor::SimHandle;
use crate::time::{SimDuration, SimTime};

/// Aggregate statistics of a resource, for utilization reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResourceStats {
    /// Total number of service requests booked.
    pub requests: u64,
    /// Sum of service durations (busy time across all servers).
    pub busy: SimDuration,
    /// Sum of queueing delays (start − arrival).
    pub queued: SimDuration,
    /// Latest completion instant booked so far.
    pub last_completion: SimTime,
}

impl ResourceStats {
    /// Utilization of the station over `[0, horizon]`, in `[0, capacity]`.
    pub fn utilization(&self, horizon: SimTime, capacity: usize) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.busy.as_secs_f64() / horizon.as_secs_f64() / capacity.max(1) as f64
    }
}

struct Inner {
    /// Earliest-free instants of the servers (min-heap).
    free: BinaryHeap<Reverse<SimTime>>,
    stats: ResourceStats,
}

/// A FIFO multi-server service station in virtual time.
pub struct Resource {
    handle: SimHandle,
    name: String,
    capacity: usize,
    inner: RefCell<Inner>,
}

impl Resource {
    /// Create a station with `capacity` servers, all free at time zero.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(handle: SimHandle, name: impl Into<String>, capacity: usize) -> Resource {
        assert!(capacity > 0, "resource capacity must be positive");
        let mut free = BinaryHeap::with_capacity(capacity);
        for _ in 0..capacity {
            free.push(Reverse(SimTime::ZERO));
        }
        Resource {
            handle,
            name: name.into(),
            capacity,
            inner: RefCell::new(Inner {
                free,
                stats: ResourceStats::default(),
            }),
        }
    }

    /// Station name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of servers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Book a service of `dur` for a request arriving at `arrival`, without
    /// waiting. Returns the `(start, end)` instants of the service.
    pub fn reserve_at(&self, arrival: SimTime, dur: SimDuration) -> (SimTime, SimTime) {
        let mut inner = self.inner.borrow_mut();
        let Reverse(server_free) = inner.free.pop().expect("resource has at least one server");
        let start = arrival.max(server_free);
        let end = start + dur;
        inner.free.push(Reverse(end));
        inner.stats.requests += 1;
        inner.stats.busy += dur;
        inner.stats.queued += start.since(arrival);
        inner.stats.last_completion = inner.stats.last_completion.max(end);
        (start, end)
    }

    /// Book a service of `dur` arriving now. Returns `(start, end)`.
    pub fn reserve(&self, dur: SimDuration) -> (SimTime, SimTime) {
        self.reserve_at(self.handle.now(), dur)
    }

    /// Book a service of `dur` arriving now and wait (in virtual time)
    /// until it completes. Returns the completion instant.
    pub async fn serve(&self, dur: SimDuration) -> SimTime {
        let (_start, end) = self.reserve(dur);
        self.handle.sleep_until(end).await;
        end
    }

    /// Snapshot of the station's statistics.
    pub fn stats(&self) -> ResourceStats {
        self.inner.borrow().stats
    }

    /// Earliest instant at which any server is free (i.e. when a request
    /// arriving now would start).
    pub fn earliest_free(&self) -> SimTime {
        self.inner
            .borrow()
            .free
            .peek()
            .map(|Reverse(t)| *t)
            .expect("resource has at least one server")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{join_all, Sim};
    use std::rc::Rc;

    #[test]
    fn single_server_serializes_fifo() {
        let (ends, _) = Sim::run_to_completion(|h| {
            Box::pin(async move {
                let r = Rc::new(Resource::new(h.clone(), "disk", 1));
                let futs: Vec<_> = (0..3)
                    .map(|_| {
                        let r = Rc::clone(&r);
                        async move { r.serve(SimDuration::from_millis(10)).await }
                    })
                    .collect();
                join_all(&h, futs).await
            })
        });
        assert_eq!(
            ends,
            vec![
                SimTime(10_000_000),
                SimTime(20_000_000),
                SimTime(30_000_000)
            ]
        );
    }

    #[test]
    fn multi_server_runs_in_parallel() {
        let (ends, _) = Sim::run_to_completion(|h| {
            Box::pin(async move {
                let r = Rc::new(Resource::new(h.clone(), "disks", 2));
                let futs: Vec<_> = (0..4)
                    .map(|_| {
                        let r = Rc::clone(&r);
                        async move { r.serve(SimDuration::from_millis(10)).await }
                    })
                    .collect();
                join_all(&h, futs).await
            })
        });
        assert_eq!(
            ends,
            vec![
                SimTime(10_000_000),
                SimTime(10_000_000),
                SimTime(20_000_000),
                SimTime(20_000_000)
            ]
        );
    }

    #[test]
    fn reserve_books_without_sleeping() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let r = Resource::new(h.clone(), "nic", 1);
        let (s1, e1) = r.reserve(SimDuration::from_secs(1));
        let (s2, e2) = r.reserve(SimDuration::from_secs(2));
        assert_eq!((s1, e1), (SimTime::ZERO, SimTime(1_000_000_000)));
        assert_eq!((s2, e2), (SimTime(1_000_000_000), SimTime(3_000_000_000)));
        assert_eq!(h.now(), SimTime::ZERO); // no time consumed
        assert_eq!(sim.run(), SimTime::ZERO);
    }

    #[test]
    fn reserve_at_future_arrival() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let r = Resource::new(h, "nic", 1);
        let (s, e) = r.reserve_at(SimTime(5_000), SimDuration::from_nanos(100));
        assert_eq!((s, e), (SimTime(5_000), SimTime(5_100)));
        // Second request arrives earlier but books later — FIFO by booking.
        let (s2, _) = r.reserve_at(SimTime(0), SimDuration::from_nanos(100));
        assert_eq!(s2, SimTime(5_100));
        sim.run();
    }

    #[test]
    fn stats_accumulate() {
        let mut sim = Sim::new();
        let r = Resource::new(sim.handle(), "disk", 1);
        r.reserve(SimDuration::from_secs(2));
        r.reserve(SimDuration::from_secs(2)); // queued 2s
        let st = r.stats();
        assert_eq!(st.requests, 2);
        assert_eq!(st.busy, SimDuration::from_secs(4));
        assert_eq!(st.queued, SimDuration::from_secs(2));
        assert_eq!(st.last_completion, SimTime(4_000_000_000));
        assert!((st.utilization(SimTime(4_000_000_000), 1) - 1.0).abs() < 1e-9);
        sim.run();
    }

    #[test]
    fn earliest_free_tracks_bookings() {
        let sim = Sim::new();
        let r = Resource::new(sim.handle(), "disk", 2);
        assert_eq!(r.earliest_free(), SimTime::ZERO);
        r.reserve(SimDuration::from_secs(5));
        // Second server still idle.
        assert_eq!(r.earliest_free(), SimTime::ZERO);
        r.reserve(SimDuration::from_secs(3));
        assert_eq!(r.earliest_free(), SimTime(3_000_000_000));
        assert_eq!(r.name(), "disk");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let sim = Sim::new();
        let _ = Resource::new(sim.handle(), "bad", 0);
    }
}
