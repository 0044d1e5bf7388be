//! A [`SoftQueue`] wrapper that double-books every element movement,
//! so the no-lost-callback invariant can be checked from the outside:
//!
//! ```text
//! pushes == pops + len + elements_reclaimed      (element conservation)
//! callback_hits == elements_reclaimed            (no lost callbacks)
//! ```
//!
//! The reclaim callback increments its hit counter *before* optionally
//! panicking, so callback-panic storms still account every reclaimed
//! element — the property the harness is proving.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use softmem_core::{Priority, Sma};
use softmem_sds::SoftQueue;
use softmem_telemetry::Counter;

/// A counted queue of `u64` payloads.
pub struct CountedQueue {
    name: String,
    queue: SoftQueue<u64>,
    pushes: AtomicU64,
    pops: AtomicU64,
    callback_hits: Arc<AtomicU64>,
    /// Telemetry mirror of `callback_hits`, certified by the
    /// metrics-consistency family.
    telemetry_callbacks: Arc<Counter>,
}

impl CountedQueue {
    /// Creates a queue whose reclaim callback counts (and, when
    /// `panicking` is set, then panics — the stack must absorb it).
    pub fn new(sma: &Arc<Sma>, name: &str, priority: Priority, panicking: bool) -> Arc<Self> {
        let queue = SoftQueue::new(sma, name, priority);
        let callback_hits = Arc::new(AtomicU64::new(0));
        let telemetry_callbacks = Arc::new(Counter::new());
        let hits = Arc::clone(&callback_hits);
        let mirror = Arc::clone(&telemetry_callbacks);
        queue.set_reclaim_callback(move |_v: &u64| {
            // Count FIRST: a panicking callback must still account for
            // the element it was notified about.
            hits.fetch_add(1, Ordering::SeqCst);
            mirror.add(1);
            if panicking {
                panic!("injected reclaim-callback panic");
            }
        });
        Arc::new(CountedQueue {
            name: name.to_string(),
            queue,
            pushes: AtomicU64::new(0),
            pops: AtomicU64::new(0),
            callback_hits,
            telemetry_callbacks,
        })
    }

    /// Pushes a value; returns whether the push succeeded (allocation
    /// failures under pressure are expected and uncounted).
    pub fn push(&self, value: u64) -> bool {
        if self.queue.push(value).is_ok() {
            self.pushes.fetch_add(1, Ordering::SeqCst);
            true
        } else {
            false
        }
    }

    /// Pops a value, counting it.
    pub fn pop(&self) -> Option<u64> {
        let v = self.queue.pop();
        if v.is_some() {
            self.pops.fetch_add(1, Ordering::SeqCst);
        }
        v
    }

    /// Queue name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Live element count.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// CHAOS: makes an element appear or disappear without the
    /// counters seeing it — a deliberate conservation break the
    /// checker must catch. Pops uncounted when possible, otherwise
    /// pushes uncounted.
    pub fn inject_stealth_op(&self) {
        if self.queue.pop().is_none() {
            let _ = self.queue.push(u64::MAX);
        }
    }

    /// Audits the two callback-accounting identities, returning
    /// human-readable defect descriptions.
    pub fn audit(&self) -> Vec<String> {
        let mut defects = Vec::new();
        // Snapshot order matters for a consistent view: workers are
        // parked during checks, so these reads are stable.
        let pushes = self.pushes.load(Ordering::SeqCst);
        let pops = self.pops.load(Ordering::SeqCst);
        let hits = self.callback_hits.load(Ordering::SeqCst);
        let len = self.queue.len() as u64;
        let reclaimed = self.queue.reclaim_stats().elements_reclaimed;
        if pushes != pops + len + reclaimed {
            defects.push(format!(
                "queue `{}` element conservation broken: pushes {pushes} != \
                 pops {pops} + len {len} + reclaimed {reclaimed}",
                self.name
            ));
        }
        if hits != reclaimed {
            defects.push(format!(
                "queue `{}` lost callbacks: {hits} callback hit(s) for \
                 {reclaimed} reclaimed element(s)",
                self.name
            ));
        }
        defects
    }

    /// Audits the telemetry mirror against the trusted hit counter
    /// (metrics-consistency family). Empty with telemetry disabled.
    pub fn audit_telemetry(&self) -> Vec<String> {
        let hits = self.callback_hits.load(Ordering::SeqCst);
        let mirror = self.telemetry_callbacks.get();
        if mirror != hits {
            vec![format!(
                "queue `{}`: telemetry callback mirror {mirror} != ground truth {hits}",
                self.name
            )]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_holds_through_push_pop_reclaim() {
        let sma = Sma::standalone(16);
        let q = CountedQueue::new(&sma, "q", Priority::default(), false);
        for i in 0..200 {
            assert!(q.push(i));
        }
        for _ in 0..50 {
            q.pop().unwrap();
        }
        sma.reclaim(2);
        assert!(q.audit().is_empty(), "{:?}", q.audit());
    }

    #[test]
    fn panicking_callback_still_accounts() {
        let sma = Sma::standalone(16);
        let q = CountedQueue::new(&sma, "q", Priority::default(), true);
        for i in 0..200 {
            assert!(q.push(i));
        }
        // Demand the whole budget so reclamation must dig past the
        // slack tier into live queue elements.
        let report = sma.reclaim(16);
        assert!(report.allocs_freed() > 0, "reclaim did free elements");
        assert!(q.audit().is_empty(), "{:?}", q.audit());
    }

    #[test]
    fn stealth_op_is_caught() {
        let sma = Sma::standalone(16);
        let q = CountedQueue::new(&sma, "q", Priority::default(), false);
        for i in 0..10 {
            assert!(q.push(i));
        }
        q.inject_stealth_op();
        let defects = q.audit();
        assert!(
            defects.iter().any(|d| d.contains("conservation broken")),
            "{defects:?}"
        );
    }
}
