//! Synchronization primitives in virtual time: channels and one-shot
//! events.
//!
//! All primitives are single-threaded (`Rc`-based) and deterministic:
//! waiters are released in FIFO order of their first poll. None of them
//! holds a hash map — wait sets are `VecDeque`/`Vec`, so there is no
//! iteration-order hazard here and nothing for the [`crate::hash`]
//! FxHash swap to touch.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Create an unbounded multi-producer single-consumer channel.
///
/// `send` is non-blocking and consumes no virtual time; the message-passing
/// layer models transfer latency separately before delivering.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Rc::new(RefCell::new(ChanInner {
        queue: VecDeque::new(),
        recv_waker: None,
        senders: 1,
    }));
    (
        Sender {
            inner: Rc::clone(&inner),
        },
        Receiver { inner },
    )
}

struct ChanInner<T> {
    queue: VecDeque<T>,
    recv_waker: Option<Waker>,
    senders: usize,
}

/// Sending half of a [`channel`].
pub struct Sender<T> {
    inner: Rc<RefCell<ChanInner<T>>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.borrow_mut().senders += 1;
        Sender {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.inner.borrow_mut();
        inner.senders -= 1;
        if inner.senders == 0 {
            if let Some(w) = inner.recv_waker.take() {
                w.wake();
            }
        }
    }
}

impl<T> Sender<T> {
    /// Enqueue a message and wake the receiver.
    pub fn send(&self, value: T) {
        let mut inner = self.inner.borrow_mut();
        inner.queue.push_back(value);
        if let Some(w) = inner.recv_waker.take() {
            w.wake();
        }
    }
}

/// Receiving half of a [`channel`].
pub struct Receiver<T> {
    inner: Rc<RefCell<ChanInner<T>>>,
}

impl<T> Receiver<T> {
    /// Await the next message; `None` once all senders are dropped and the
    /// queue is drained.
    pub fn recv(&self) -> Recv<'_, T> {
        Recv { rx: self }
    }

    /// Take a message if one is queued, without waiting.
    pub fn try_recv(&self) -> Option<T> {
        self.inner.borrow_mut().queue.pop_front()
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    rx: &'a Receiver<T>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut inner = self.rx.inner.borrow_mut();
        if let Some(v) = inner.queue.pop_front() {
            Poll::Ready(Some(v))
        } else if inner.senders == 0 {
            Poll::Ready(None)
        } else {
            // Skip the clone when the same task re-polls (cached wakers
            // make `will_wake` an exact identity test).
            match &inner.recv_waker {
                Some(w) if w.will_wake(cx.waker()) => {}
                _ => inner.recv_waker = Some(cx.waker().clone()),
            }
            Poll::Pending
        }
    }
}

struct EventInner<T> {
    value: Option<T>,
    wakers: Vec<Waker>,
}

/// A one-shot broadcast event carrying a cloneable value.
pub struct Event<T: Clone> {
    inner: Rc<RefCell<EventInner<T>>>,
}

impl<T: Clone> Clone for Event<T> {
    fn clone(&self) -> Self {
        Event {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T: Clone> Default for Event<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> Event<T> {
    /// Create an unset event.
    pub fn new() -> Event<T> {
        Event {
            inner: Rc::new(RefCell::new(EventInner {
                value: None,
                wakers: Vec::new(),
            })),
        }
    }

    /// Set the value and wake all waiters. Panics if already set.
    pub fn set(&self, value: T) {
        let mut inner = self.inner.borrow_mut();
        assert!(inner.value.is_none(), "event set twice");
        inner.value = Some(value);
        for w in inner.wakers.drain(..) {
            w.wake();
        }
    }

    /// Wait for the event and clone its value.
    pub fn wait(&self) -> EventWait<T> {
        EventWait {
            event: self.clone(),
        }
    }
}

/// Future returned by [`Event::wait`].
pub struct EventWait<T: Clone> {
    event: Event<T>,
}

impl<T: Clone> Future for EventWait<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut inner = self.event.inner.borrow_mut();
        if let Some(v) = &inner.value {
            Poll::Ready(v.clone())
        } else {
            inner.wakers.push(cx.waker().clone());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::{SimDuration, SimTime};

    #[test]
    fn channel_delivers_in_order() {
        let (out, _) = Sim::run_to_completion(|h| {
            Box::pin(async move {
                let (tx, rx) = channel::<u32>();
                h.spawn(async move {
                    for i in 0..5 {
                        tx.send(i);
                    }
                });
                let mut got = Vec::new();
                while let Some(v) = rx.recv().await {
                    got.push(v);
                }
                got
            })
        });
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn channel_recv_blocks_until_send() {
        let (t, _) = Sim::run_to_completion(|h| {
            Box::pin(async move {
                let (tx, rx) = channel::<()>();
                let h2 = h.clone();
                h.spawn(async move {
                    h2.sleep(SimDuration::from_secs(3)).await;
                    tx.send(());
                });
                rx.recv().await.unwrap();
                h.now()
            })
        });
        assert_eq!(t, SimTime(3_000_000_000));
    }

    #[test]
    fn try_recv_and_len_reflect_the_queue() {
        let (tx, rx) = channel::<u32>();
        assert!(rx.is_empty());
        assert_eq!(rx.try_recv(), None);
        tx.send(1);
        tx.send(2);
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(rx.len(), 1);
        assert_eq!(rx.try_recv(), Some(2));
        assert!(rx.is_empty());
    }

    #[test]
    fn channel_close_returns_none() {
        let (out, _) = Sim::run_to_completion(|_h| {
            Box::pin(async move {
                let (tx, rx) = channel::<u32>();
                tx.send(7);
                drop(tx);
                assert_eq!(rx.recv().await, Some(7));
                rx.recv().await
            })
        });
        assert_eq!(out, None);
    }

    #[test]
    fn event_broadcasts_value() {
        let (vals, _) = Sim::run_to_completion(|h| {
            Box::pin(async move {
                let ev: Event<u32> = Event::new();
                let waiters: Vec<_> = (0..3)
                    .map(|_| {
                        let ev = ev.clone();
                        async move { ev.wait().await }
                    })
                    .collect();
                let hs: Vec<_> = waiters.into_iter().map(|f| h.spawn(f)).collect();
                h.sleep(SimDuration::from_secs(1)).await;
                assert!(hs.iter().all(|jh| !jh.is_finished()));
                ev.set(99);
                let mut out = Vec::new();
                for jh in hs {
                    out.push(jh.await);
                }
                out
            })
        });
        assert_eq!(vals, vec![99, 99, 99]);
    }

    #[test]
    #[should_panic(expected = "set twice")]
    fn event_set_twice_panics() {
        let ev: Event<u8> = Event::new();
        ev.set(1);
        ev.set(2);
    }
}
