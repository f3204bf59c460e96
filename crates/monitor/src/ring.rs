//! Bounded single-producer/single-consumer ring buffers — the pool's
//! lock-free ingestion transport.
//!
//! [`MonitorPool`](crate::MonitorPool) used to hand events to its
//! workers through a shared `Mutex<VecDeque>` guarded by two condvars;
//! at monitor speeds (≈ 40 ns/event) that handoff dominated the end to
//! end cost. This module replaces it with one bounded ring per
//! (stream, worker) pair:
//!
//! * **Power-of-two capacity**, indexed by monotonically increasing
//!   sequence numbers masked into the slot array, so wrap-around is a
//!   bitwise `&`.
//! * **Cache-line-padded atomic cursors** ([`CachePadded`]): `tail`
//!   (next sequence the producer publishes) and `head` (next sequence
//!   claimed for removal). The producer is the only writer of `tail`;
//!   `head` moves by compare-and-swap so the consumer's batched claim
//!   and the producer's [`evict_oldest`](Producer::evict_oldest) (the
//!   drop-oldest overload policy) can race safely. A claimed slot is
//!   vacated by the claimer moving the value out; the producer reuses a
//!   slot only once it observes the vacancy *in the slot itself*, so
//!   claims may complete out of order (eviction racing a batched drain)
//!   without any reuse hazard.
//! * **Batched publish and drain**: [`Producer::try_push_many`] fills a
//!   whole run of slots and publishes them with a *single* release
//!   store of `tail`; [`Consumer::pop_many`] claims a whole run with a
//!   single compare-and-swap. Producer and consumer touch each other's
//!   cache lines `O(events / batch)` times instead of per event.
//! * **Spin-then-park blocking**: a producer that needs room
//!   ([`Producer::wait_space`]) spins briefly, then publishes its
//!   [`Thread`] handle and parks; the consumer unparks it after every
//!   drain that frees slots. Parking uses a timeout as a backstop, but
//!   the wakeup protocol does not rely on it: flag stores and cursor
//!   loads are ordered by `SeqCst` fences on both sides, so either the
//!   producer observes the freed space or the consumer observes the
//!   waiting flag.
//!
//! The coordination protocol never blocks on a lock. Each slot is a
//! `Mutex<Option<T>>` that doubles as the vacancy marker: the producer
//! probes a candidate slot with `try_lock` and backs off if the
//! previous occupant's removal is still in flight, and a claimer's lock
//! is contended only by such a momentary probe. The cursor arithmetic
//! guarantees claimed sequence ranges never overlap, so the mutexes are
//! uncontended in steady state and exist to keep the crate
//! `#![forbid(unsafe_code)]`-clean.
//!
//! A slot costs `size_of::<Mutex<Option<T>>>()`: the value plus the
//! mutex's 4-byte futex word and poison flag, rounded up to `T`'s
//! alignment, with `Option`'s tag folded into a niche of `T` when it
//! has one. The pool's `Event<u32, u32>` stores its time as a 16-byte
//! [`PackedRat`](tempo_math::PackedRat), whose nonzero denominator is
//! such a niche, so its slot is 32 bytes (80 with a 32-byte `Rat`
//! time); a 64-slot ring is 2 KiB. A lock-free slot holding a sequence
//! stamp beside the same 24-byte event would also take 32 bytes, so
//! the mutex slot stays: it buys the same size with no new
//! synchronization protocol to prove, and no `unsafe`.
//!
//! # Example
//!
//! ```
//! use tempo_monitor::ring;
//!
//! let (mut tx, mut rx) = ring::ring::<u32>(8);
//! assert_eq!(tx.try_push(1), Ok(1));
//! assert_eq!(tx.try_push(2), Ok(2));
//! let mut out = Vec::new();
//! assert_eq!(rx.pop_many(64, &mut out), 2);
//! assert_eq!(out, vec![1, 2]);
//! ```

use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};
use std::time::Duration;

/// Aligns (and thereby pads) a value to a 64-byte cache line, so two
/// `CachePadded` values never share a line and atomic traffic on one
/// does not invalidate the other — used for the ring cursors and the
/// per-stream lag counters.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T> {
    /// The padded value.
    pub value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in its own cache line.
    pub fn new(value: T) -> CachePadded<T> {
        CachePadded { value }
    }
}

/// Spins this many times re-checking for space before a producer parks.
const SPIN_LIMIT: u32 = 64;

/// Backstop timeout for producer parking. The `SeqCst`-fenced
/// flag/cursor protocol makes lost wakeups impossible; the timeout only
/// bounds the damage of a consumer that disappears entirely (e.g. a
/// worker that already shut down).
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

struct Core<T> {
    /// `capacity - 1`; capacity is a power of two, so `seq & mask` is
    /// the slot index of sequence number `seq`.
    mask: usize,
    /// One mutex per slot, doubling as the vacancy marker (see the
    /// module docs): `Some` while a published value waits, `None` once
    /// its claimer moved it out.
    slots: Box<[Mutex<Option<T>>]>,
    /// Next sequence the producer publishes. Written only by the
    /// producer (release store after the slot writes); read by the
    /// consumer.
    tail: CachePadded<AtomicUsize>,
    /// Next sequence claimed for removal — advanced by the consumer's
    /// batched claim and by the producer's evict-oldest, both via CAS.
    head: CachePadded<AtomicUsize>,
    /// Set (with a `SeqCst` fence) by a producer about to park.
    producer_waiting: AtomicBool,
    /// The parked producer's thread handle, for the consumer to unpark.
    producer_thread: Mutex<Option<Thread>>,
}

impl<T> Core<T> {
    /// Moves the value out of claimed sequence `seq`'s slot and vacates
    /// it. The lock is contended only by a producer's momentary
    /// `try_lock` probe (which backs off), never held across blocking
    /// work, so this acquires in O(1).
    fn take_slot(&self, seq: usize) -> T {
        self.slots[seq & self.mask]
            .lock()
            .expect("ring slot mutex poisoned")
            .take()
            .expect("claimed ring slot holds no value")
    }

    /// Tries to move `value` into sequence `seq`'s slot. Backs off
    /// (returning the value) while the slot's previous occupant is
    /// still being moved out — the claim is published, the physical
    /// removal not yet complete.
    fn try_put_slot(&self, seq: usize, value: T) -> Result<(), T> {
        match self.slots[seq & self.mask].try_lock() {
            Ok(mut guard) if guard.is_none() => {
                *guard = Some(value);
                Ok(())
            }
            _ => Err(value),
        }
    }

    fn capacity(&self) -> usize {
        self.mask + 1
    }
}

/// Creates a bounded SPSC ring of at least `capacity` slots (rounded up
/// to the next power of two, minimum 1) and returns its two endpoints.
///
/// The producer and consumer halves are each single-owner: they are
/// `Send` (movable to another thread) but deliberately not `Clone` —
/// one thread pushes, one thread pops, which is what makes the
/// wait-free cursor arithmetic sound.
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(1).next_power_of_two();
    let core = Arc::new(Core {
        mask: cap - 1,
        slots: (0..cap).map(|_| Mutex::new(None)).collect(),
        tail: CachePadded::new(AtomicUsize::new(0)),
        head: CachePadded::new(AtomicUsize::new(0)),
        producer_waiting: AtomicBool::new(false),
        producer_thread: Mutex::new(None),
    });
    (
        Producer {
            core: Arc::clone(&core),
        },
        Consumer { core },
    )
}

/// The push side of a [`ring`]. Owned by exactly one thread at a time.
pub struct Producer<T> {
    core: Arc<Core<T>>,
}

impl<T> Producer<T> {
    /// The ring's slot count (the `capacity` passed to [`ring`], rounded
    /// up to a power of two).
    pub fn capacity(&self) -> usize {
        self.core.capacity()
    }

    /// Published entries not yet claimed by a pop or an eviction.
    pub fn len(&self) -> usize {
        self.core
            .tail
            .value
            .load(Ordering::Relaxed)
            .wrapping_sub(self.core.head.value.load(Ordering::Acquire))
    }

    /// `true` when every published entry has been claimed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Unclaimed-entry slots still free right now.
    fn free(&self) -> usize {
        self.capacity() - self.len()
    }

    /// Pushes one value if a slot is free. Returns the occupied depth
    /// after the push, or the rejected value — on a full ring, or
    /// (transiently) while the candidate slot's previous occupant is
    /// still being moved out by an in-flight claim.
    pub fn try_push(&mut self, value: T) -> Result<usize, T> {
        let head = self.core.head.value.load(Ordering::Acquire);
        let tail = self.core.tail.value.load(Ordering::Relaxed);
        if tail.wrapping_sub(head) == self.capacity() {
            return Err(value);
        }
        let value = match self.core.try_put_slot(tail, value) {
            Ok(()) => {
                self.core
                    .tail
                    .value
                    .store(tail.wrapping_add(1), Ordering::Release);
                return Ok(tail.wrapping_add(1).wrapping_sub(head));
            }
            Err(v) => v,
        };
        Err(value)
    }

    /// Fills as many free slots from `items` as possible, then
    /// publishes them all with a single release store of `tail` — the
    /// batched-publish half of the transport. Values that do not fit
    /// stay in the iterator. Returns the occupied depth after the
    /// publish and the number of values accepted.
    ///
    /// Generic over the iterator, so callers can publish straight out
    /// of a decoder (e.g. `tempo-serve`'s wire frames) without
    /// collecting into an intermediate `Vec` first.
    pub fn try_push_many<I: Iterator<Item = T>>(&mut self, items: &mut I) -> (usize, usize) {
        let head = self.core.head.value.load(Ordering::Acquire);
        let tail = self.core.tail.value.load(Ordering::Relaxed);
        let room = self.capacity() - tail.wrapping_sub(head);
        let mut accepted = 0;
        while accepted < room {
            // Probe the slot *before* consuming an item, so a back-off
            // (previous occupant's removal still in flight) leaves the
            // iterator untouched.
            let Ok(mut guard) =
                self.core.slots[tail.wrapping_add(accepted) & self.core.mask].try_lock()
            else {
                break;
            };
            if guard.is_some() {
                break;
            }
            match items.next() {
                Some(v) => {
                    *guard = Some(v);
                    accepted += 1;
                }
                None => break,
            }
        }
        if accepted > 0 {
            self.core
                .tail
                .value
                .store(tail.wrapping_add(accepted), Ordering::Release);
        }
        (tail.wrapping_add(accepted).wrapping_sub(head), accepted)
    }

    /// Pushes one value, spinning then parking until a slot is free (the
    /// `Block` overload policy). Returns the occupied depth after the
    /// push.
    ///
    /// Blocks indefinitely if the consumer never drains.
    pub fn push_blocking(&mut self, mut value: T) -> usize {
        loop {
            match self.try_push(value) {
                Ok(depth) => return depth,
                Err(v) => {
                    value = v;
                    self.wait_space();
                }
            }
        }
    }

    /// Spins, then parks, until at least one slot is free. The consumer
    /// unparks the producer after every draining pop; a `SeqCst` fence
    /// on each side of the flag/cursor exchange rules out lost wakeups
    /// (see the module docs).
    pub fn wait_space(&mut self) {
        self.wait_space_inner(None);
    }

    /// [`wait_space`](Producer::wait_space), abandoned when `stop`
    /// becomes `true`. Returns `true` when a slot is free, `false` when
    /// the wait was called off with the ring still full — the escape
    /// hatch a pool producer needs when its worker is shutting down and
    /// will never drain again.
    pub fn wait_space_or(&mut self, stop: &AtomicBool) -> bool {
        self.wait_space_inner(Some(stop))
    }

    fn wait_space_inner(&mut self, stop: Option<&AtomicBool>) -> bool {
        let mut spins = 0u32;
        loop {
            if self.free() > 0 {
                return true;
            }
            if let Some(stop) = stop {
                // `SeqCst`-fenced like the park protocol below: pairs
                // with the store-then-wake in `MonitorPool::shutdown`,
                // so either this load sees the stop flag or the stopper
                // sees the waiting flag and unparks us into a re-check.
                if stop.load(Ordering::SeqCst) {
                    return false;
                }
            }
            spins += 1;
            if spins < SPIN_LIMIT {
                std::hint::spin_loop();
                continue;
            }
            // Slow path: advertise, fence, re-check, park.
            *self
                .core
                .producer_thread
                .lock()
                .expect("ring parker mutex poisoned") = Some(thread::current());
            self.core.producer_waiting.store(true, Ordering::Release);
            fence(Ordering::SeqCst);
            if self.free() > 0 {
                self.core.producer_waiting.store(false, Ordering::Relaxed);
                return true;
            }
            thread::park_timeout(PARK_TIMEOUT);
            self.core.producer_waiting.store(false, Ordering::Relaxed);
            spins = 0;
        }
    }

    /// Claims and removes the oldest unclaimed entry — the producer half
    /// of the `DropOldest` overload policy. Returns `None` when there is
    /// nothing evictable: the ring is empty, or every published entry is
    /// already claimed by an in-flight consumer pop (a bounded window;
    /// retry after a spin).
    pub fn evict_oldest(&mut self) -> Option<T> {
        loop {
            let head = self.core.head.value.load(Ordering::Relaxed);
            let tail = self.core.tail.value.load(Ordering::Relaxed);
            if tail == head {
                return None;
            }
            if self
                .core
                .head
                .value
                .compare_exchange(
                    head,
                    head.wrapping_add(1),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                return Some(self.core.take_slot(head));
            }
            // Lost the claim race to the consumer; retry on fresh cursors.
        }
    }
}

/// The pop side of a [`ring`]. Owned by exactly one thread at a time.
pub struct Consumer<T> {
    core: Arc<Core<T>>,
}

impl<T> Consumer<T> {
    /// The ring's slot count.
    pub fn capacity(&self) -> usize {
        self.core.capacity()
    }

    /// Published entries not yet claimed.
    pub fn len(&self) -> usize {
        self.core
            .tail
            .value
            .load(Ordering::Acquire)
            .wrapping_sub(self.core.head.value.load(Ordering::Relaxed))
    }

    /// `true` when every published entry has been claimed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Claims up to `max` published entries with one compare-and-swap
    /// and moves them into `out` in FIFO order — the batched-drain half
    /// of the transport. Returns the number of entries moved (0 when
    /// the ring is empty); never blocks on a full ring. Unparks a
    /// producer waiting for space.
    pub fn pop_many(&mut self, max: usize, out: &mut Vec<T>) -> usize {
        loop {
            // Load `head` before `tail`: an evicting producer advances
            // `head` concurrently, and a stale `tail` snapshot taken
            // *before* the head load could otherwise sit behind it,
            // underflowing `avail` into claims of unpublished slots.
            // In this order `tail ≥ head-at-load` always holds, and the
            // CAS below rejects the claim if `head` moved meanwhile.
            let head = self.core.head.value.load(Ordering::Relaxed);
            let tail = self.core.tail.value.load(Ordering::Acquire);
            let avail = tail.wrapping_sub(head);
            if avail == 0 {
                return 0;
            }
            let n = avail.min(max);
            if self
                .core
                .head
                .value
                .compare_exchange(
                    head,
                    head.wrapping_add(n),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                out.reserve(n);
                for k in 0..n {
                    out.push(self.core.take_slot(head.wrapping_add(k)));
                }
                self.wake_producer();
                return n;
            }
            // Lost the claim race to an evicting producer; retry.
        }
    }

    /// Unparks the producer if it advertised itself as waiting for
    /// space. Fenced so the producer either sees the freed slots or we
    /// see its waiting flag.
    fn wake_producer(&self) {
        fence(Ordering::SeqCst);
        if self.core.producer_waiting.load(Ordering::Relaxed) {
            if let Some(th) = self
                .core
                .producer_thread
                .lock()
                .expect("ring parker mutex poisoned")
                .take()
            {
                th.unpark();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(rx: &mut Consumer<u64>, max: usize) -> Vec<u64> {
        let mut out = Vec::new();
        rx.pop_many(max, &mut out);
        out
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = ring::<u64>(0);
        assert_eq!(tx.capacity(), 1);
        let (tx, _rx) = ring::<u64>(3);
        assert_eq!(tx.capacity(), 4);
        let (tx, _rx) = ring::<u64>(1024);
        assert_eq!(tx.capacity(), 1024);
    }

    #[test]
    fn fifo_across_wrap_around() {
        // Capacity 4: the slot indices wrap every 4 sequence numbers;
        // order must survive many wraps.
        let (mut tx, mut rx) = ring::<u64>(4);
        let mut next = 0u64;
        let mut expect = 0u64;
        for round in 0..100u64 {
            let n = (round % 4) + 1;
            for _ in 0..n {
                tx.try_push(next).unwrap();
                next += 1;
            }
            let got = drain(&mut rx, usize::MAX);
            assert_eq!(got.len() as u64, n);
            for v in got {
                assert_eq!(v, expect, "FIFO order across wraps");
                expect += 1;
            }
        }
        assert_eq!(expect, next);
    }

    #[test]
    fn try_push_rejects_at_capacity_boundary() {
        let (mut tx, mut rx) = ring::<u64>(2);
        assert_eq!(tx.try_push(1), Ok(1));
        assert_eq!(tx.try_push(2), Ok(2));
        assert_eq!(tx.try_push(3), Err(3));
        assert_eq!(drain(&mut rx, 1), vec![1]);
        // One slot vacated: exactly one more fits.
        assert_eq!(tx.try_push(3), Ok(2));
        assert_eq!(tx.try_push(4), Err(4));
        assert_eq!(drain(&mut rx, usize::MAX), vec![2, 3]);
    }

    #[test]
    fn batched_publish_accepts_exactly_the_room() {
        let (mut tx, mut rx) = ring::<u64>(4);
        tx.try_push(0).unwrap();
        let mut items = vec![1, 2, 3, 4, 5].into_iter();
        let (depth, accepted) = tx.try_push_many(&mut items);
        assert_eq!((depth, accepted), (4, 3));
        // The two rejects stay in the iterator for the caller's policy.
        assert_eq!(items.len(), 2);
        assert_eq!(drain(&mut rx, usize::MAX), vec![0, 1, 2, 3]);
    }

    #[test]
    fn evict_oldest_steals_in_fifo_order() {
        let (mut tx, mut rx) = ring::<u64>(4);
        for v in 0..4 {
            tx.try_push(v).unwrap();
        }
        // Full: evict makes room for exactly one new push, oldest first.
        assert_eq!(tx.evict_oldest(), Some(0));
        assert_eq!(tx.try_push(4), Ok(4));
        assert_eq!(tx.evict_oldest(), Some(1));
        assert_eq!(tx.try_push(5), Ok(4));
        assert_eq!(drain(&mut rx, usize::MAX), vec![2, 3, 4, 5]);
        assert!(rx.is_empty());
        assert_eq!(tx.evict_oldest(), None);
    }

    #[test]
    fn len_views_agree() {
        let (mut tx, mut rx) = ring::<u64>(8);
        assert!(tx.is_empty() && rx.is_empty());
        for v in 0..5 {
            tx.try_push(v).unwrap();
        }
        assert_eq!(tx.len(), 5);
        assert_eq!(rx.len(), 5);
        drain(&mut rx, 2);
        assert_eq!(rx.len(), 3);
        assert_eq!(tx.len(), 3);
    }

    #[test]
    fn blocking_push_parks_until_the_consumer_drains() {
        let (mut tx, mut rx) = ring::<u64>(2);
        tx.try_push(0).unwrap();
        tx.try_push(1).unwrap();
        let consumer = thread::spawn(move || {
            // Let the producer reach the parked state, then drain.
            thread::sleep(Duration::from_millis(20));
            let mut out = Vec::new();
            while out.len() < 4 {
                rx.pop_many(usize::MAX, &mut out);
            }
            out
        });
        // Full ring: these park until the consumer frees slots.
        tx.push_blocking(2);
        tx.push_blocking(3);
        assert_eq!(consumer.join().unwrap(), vec![0, 1, 2, 3]);
    }
}
