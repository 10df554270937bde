//! The lock-free flight recorder and its monotonic clock.
//!
//! A [`FlightRecorder`] is a fixed-size ring of [`Event`]s held in atomic words.
//! Writers claim a slot with one `fetch_add` on the head and publish through a
//! per-slot sequence word (a seqlock): the sequence is bumped to odd before the
//! payload words are stored and to the next even value after, so readers can detect
//! and discard slots caught mid-write. There are no locks, no allocation on the
//! record path, and no `unsafe`.  Recording is always on: the engine and HTTP
//! recorders each keep the last [`RING_EVENTS`] events.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::event::{Event, EventKind};

/// Shard word reserved for "no shard" (consumer-side events).
const NO_SHARD: u64 = u32::MAX as u64;

/// Capacity, in events, of every engine and HTTP flight recorder.
pub const RING_EVENTS: usize = 64;

/// A copyable monotonic epoch: every timestamp in the process is nanoseconds since
/// the same `Instant`, so events from different recorders merge into one timeline.
#[derive(Debug, Clone, Copy)]
pub struct ObsClock {
    epoch: Instant,
}

impl ObsClock {
    /// Starts a new epoch at the current instant.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }

    /// Monotonic nanoseconds since the epoch (saturating at `u64::MAX`).
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Default for ObsClock {
    fn default() -> Self {
        Self::new()
    }
}

/// One ring slot: a seqlock word plus four payload words
/// (`t_ns`, packed `kind`/`shard`, `value`, `extra`).
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    t_ns: AtomicU64,
    kind_shard: AtomicU64,
    value: AtomicU64,
    extra: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Self {
            seq: AtomicU64::new(0),
            t_ns: AtomicU64::new(0),
            kind_shard: AtomicU64::new(0),
            value: AtomicU64::new(0),
            extra: AtomicU64::new(0),
        }
    }
}

fn pack_kind_shard(kind: EventKind, shard: Option<u32>) -> u64 {
    let shard = shard.map_or(NO_SHARD, u64::from);
    (kind.discriminant() << 32) | shard
}

fn unpack_kind_shard(word: u64) -> Option<(EventKind, Option<u32>)> {
    let kind = EventKind::from_discriminant(word >> 32)?;
    let shard = word & u64::from(u32::MAX);
    let shard = if shard == NO_SHARD {
        None
    } else {
        Some(shard as u32)
    };
    Some((kind, shard))
}

/// Fixed-size lock-free ring buffer of recent [`Event`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    clock: ObsClock,
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl FlightRecorder {
    /// Creates a recorder keeping the most recent `capacity` events (minimum 1).
    pub fn new(clock: ObsClock, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            clock,
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
        }
    }

    /// The clock this recorder stamps events with.
    pub fn clock(&self) -> ObsClock {
        self.clock
    }

    /// Number of events the ring can hold.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records one event, overwriting the oldest when the ring is full.
    pub fn record(&self, kind: EventKind, shard: Option<u32>, value: u64, extra: u64) {
        let t_ns = self.clock.now_ns();
        let index = self.head.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        let slot = &self.slots[index];
        // Claim the slot by moving its sequence from even to odd; a concurrent
        // claimant (two writers lapping onto the same slot) simply retries.
        let mut seq = slot.seq.load(Ordering::Relaxed);
        loop {
            if seq % 2 == 1 {
                std::hint::spin_loop();
                seq = slot.seq.load(Ordering::Relaxed);
                continue;
            }
            match slot
                .seq
                .compare_exchange_weak(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(current) => seq = current,
            }
        }
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        slot.kind_shard
            .store(pack_kind_shard(kind, shard), Ordering::Relaxed);
        slot.value.store(value, Ordering::Relaxed);
        slot.extra.store(extra, Ordering::Relaxed);
        slot.seq.store(seq + 2, Ordering::Release);
    }

    /// Decodes the current ring contents, oldest first.
    ///
    /// Slots caught mid-write are skipped rather than blocked on, so a snapshot
    /// taken while writers are active may briefly miss the newest entry.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut events = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == 0 || seq % 2 == 1 {
                continue; // Never written, or a writer is mid-flight.
            }
            let t_ns = slot.t_ns.load(Ordering::Relaxed);
            let kind_shard = slot.kind_shard.load(Ordering::Relaxed);
            let value = slot.value.load(Ordering::Relaxed);
            let extra = slot.extra.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != seq {
                continue; // Torn read: a writer lapped us while decoding.
            }
            let Some((kind, shard)) = unpack_kind_shard(kind_shard) else {
                continue;
            };
            events.push(Event {
                t_ns,
                shard,
                kind,
                value,
                extra,
            });
        }
        events.sort_by_key(|event| event.t_ns);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots_in_time_order() {
        let recorder = FlightRecorder::new(ObsClock::new(), 8);
        for i in 0..5u64 {
            recorder.record(EventKind::BatchGenerated, Some(0), i, 2 * i);
        }
        let events = recorder.snapshot();
        assert_eq!(events.len(), 5);
        assert!(events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        let values: Vec<u64> = events.iter().map(|e| e.value).collect();
        assert_eq!(values, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let recorder = FlightRecorder::new(ObsClock::new(), 4);
        for i in 0..10u64 {
            recorder.record(EventKind::StageApplied, Some(1), i, 0);
        }
        let events = recorder.snapshot();
        assert_eq!(events.len(), 4);
        let mut values: Vec<u64> = events.iter().map(|e| e.value).collect();
        values.sort_unstable();
        assert_eq!(values, vec![6, 7, 8, 9]);
    }

    #[test]
    fn shardless_events_survive_packing() {
        let recorder = FlightRecorder::new(ObsClock::new(), 2);
        recorder.record(EventKind::TapWait, None, 99, 1);
        let events = recorder.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].shard, None);
        assert_eq!(events[0].kind, EventKind::TapWait);
        assert_eq!(events[0].value, 99);
    }

    #[test]
    fn concurrent_writers_never_corrupt_the_ring() {
        let recorder = std::sync::Arc::new(FlightRecorder::new(ObsClock::new(), 16));
        let threads: Vec<_> = (0..4u32)
            .map(|shard| {
                let recorder = std::sync::Arc::clone(&recorder);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        recorder.record(EventKind::BatchGenerated, Some(shard), i, 0);
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().expect("writer joins");
        }
        let events = recorder.snapshot();
        assert!(events.len() <= 16);
        for event in events {
            assert!(event.shard.expect("shard set") < 4);
            assert!(event.value < 1000);
        }
    }
}
