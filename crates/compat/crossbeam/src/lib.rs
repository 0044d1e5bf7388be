//! A minimal, API-compatible stand-in for the `crossbeam` crate.
//!
//! This workspace builds in offline environments with no registry
//! access, so the external `crossbeam` dependency is replaced by this
//! shim. Only `crossbeam::channel` is provided — MPMC channels built
//! on a mutex-protected deque with condition variables. Semantics
//! match the crossbeam subset the workspace relies on: cloneable
//! senders and receivers, blocking `recv`, `recv_timeout`, and
//! disconnect errors once the other side is fully dropped.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        not_empty: Condvar,
        not_full: Condvar,
        capacity: Option<usize>,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// `send` failed because every receiver was dropped; the value
    /// comes back to the caller.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// `recv` failed because the channel is empty and every sender was
    /// dropped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Why a `recv_timeout` returned without a value.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No value arrived within the timeout.
        Timeout,
        /// Every sender was dropped and the queue is empty.
        Disconnected,
    }

    /// Why a `try_recv` returned without a value.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The queue is currently empty.
        Empty,
        /// Every sender was dropped and the queue is empty.
        Disconnected,
    }

    /// Why a `try_send` did not enqueue. The unsent value comes back.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The bounded channel is at capacity.
        Full(T),
        /// Every receiver was dropped.
        Disconnected(T),
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty, disconnected channel")
        }
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a bounded MPMC channel holding at most `cap` messages
    /// (`cap == 0` is treated as capacity 1; true rendezvous channels
    /// are not needed by this workspace).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap.max(1)))
    }

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Shared<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
            match self.queue.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            }
        }
    }

    impl<T> Sender<T> {
        /// Sends `value`, blocking while a bounded channel is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let shared = &self.shared;
            let mut queue = shared.lock();
            loop {
                if shared.receivers.load(Ordering::Acquire) == 0 {
                    return Err(SendError(value));
                }
                match shared.capacity {
                    Some(cap) if queue.len() >= cap => {
                        queue = match shared.not_full.wait(queue) {
                            Ok(g) => g,
                            Err(poisoned) => poisoned.into_inner(),
                        };
                    }
                    _ => break,
                }
            }
            queue.push_back(value);
            drop(queue);
            shared.not_empty.notify_one();
            Ok(())
        }

        /// Sends `value` without blocking: fails if the bounded channel
        /// is full or every receiver is gone. Used for coalesced wakeup
        /// channels, where a pending message already carries the signal.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let shared = &self.shared;
            let mut queue = shared.lock();
            if shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if let Some(cap) = shared.capacity {
                if queue.len() >= cap {
                    return Err(TrySendError::Full(value));
                }
            }
            queue.push_back(value);
            drop(queue);
            shared.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender: wake every parked receiver so it can
                // observe the disconnect.
                let _guard = self.shared.lock();
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Receives a value, blocking until one arrives or every
        /// sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let shared = &self.shared;
            let mut queue = shared.lock();
            loop {
                if let Some(value) = queue.pop_front() {
                    drop(queue);
                    shared.not_full.notify_one();
                    return Ok(value);
                }
                if shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                queue = match shared.not_empty.wait(queue) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        }

        /// Receives a value, giving up after `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let shared = &self.shared;
            let deadline = Instant::now() + timeout;
            let mut queue = shared.lock();
            loop {
                if let Some(value) = queue.pop_front() {
                    drop(queue);
                    shared.not_full.notify_one();
                    return Ok(value);
                }
                if shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _result) = match shared.not_empty.wait_timeout(queue, deadline - now) {
                    Ok(pair) => pair,
                    Err(poisoned) => poisoned.into_inner(),
                };
                queue = guard;
            }
        }

        /// Receives a value if one is immediately available.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let shared = &self.shared;
            let mut queue = shared.lock();
            if let Some(value) = queue.pop_front() {
                drop(queue);
                shared.not_full.notify_one();
                return Ok(value);
            }
            if shared.senders.load(Ordering::Acquire) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.shared.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last receiver: discard every queued message (matching
                // real crossbeam). A message that won the race against
                // this drop may own resources another thread is parked
                // on — e.g. the only Sender of a reply channel — and
                // leaving it in the orphaned queue strands that thread
                // forever. Destructors run outside the lock in case
                // they touch other channels. Also wake parked senders
                // so they can observe the disconnect.
                let orphaned: Vec<T> = {
                    let mut queue = self.shared.lock();
                    self.shared.not_full.notify_all();
                    queue.drain(..).collect()
                };
                drop(orphaned);
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn unbounded_round_trip() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
        }

        #[test]
        fn recv_blocks_until_send() {
            let (tx, rx) = unbounded();
            let t = std::thread::spawn(move || rx.recv().unwrap());
            std::thread::sleep(Duration::from_millis(20));
            tx.send(42u32).unwrap();
            assert_eq!(t.join().unwrap(), 42);
        }

        #[test]
        fn disconnect_is_observable_on_both_sides() {
            let (tx, rx) = unbounded::<u8>();
            drop(rx);
            assert!(tx.send(1).is_err());
            let (tx, rx) = unbounded::<u8>();
            tx.send(7).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(7));
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn dropping_last_receiver_discards_queued_messages() {
            // Regression: a queued message may own the only Sender of a
            // reply channel. A send that lands just before the receiver
            // is dropped must not strand the replier forever (observed
            // as a deadlock when a channel-fed worker shut down: it
            // drops its rx while a racing request has already enqueued
            // its reply sender).
            let (tx, rx) = unbounded();
            let (reply_tx, reply_rx) = bounded::<u8>(1);
            assert!(tx.send(reply_tx).is_ok());
            drop(rx);
            assert_eq!(reply_rx.recv(), Err(RecvError));
        }

        #[test]
        fn bounded_send_blocks_at_capacity() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let t = std::thread::spawn(move || {
                tx.send(2).unwrap(); // blocks until the first recv
                42
            });
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(t.join().unwrap(), 42);
        }

        #[test]
        fn recv_timeout_times_out() {
            let (tx, rx) = unbounded::<u8>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(3).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(3));
        }

        #[test]
        fn mpmc_under_contention() {
            let (tx, rx) = bounded(4);
            let mut producers = Vec::new();
            for p in 0..4u64 {
                let tx = tx.clone();
                producers.push(std::thread::spawn(move || {
                    for i in 0..100 {
                        tx.send(p * 1000 + i).unwrap();
                    }
                }));
            }
            drop(tx);
            let mut consumers = Vec::new();
            for _ in 0..2 {
                let rx = rx.clone();
                consumers.push(std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                }));
            }
            drop(rx);
            for p in producers {
                p.join().unwrap();
            }
            let total: usize = consumers.into_iter().map(|c| c.join().unwrap().len()).sum();
            assert_eq!(total, 400);
        }
    }
}
