//! Consumer side of the pool: bounded batch channel, bit packing, byte budgets.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Receiver;

use ptrng_ais::bits::PartialByte;

use crate::{EngineError, Result};

/// One batch of packed output bytes from a shard.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Index of the producing shard.
    pub shard: usize,
    /// Packed output bytes (conditioned when a conditioning chain is configured).
    pub bytes: Vec<u8>,
    /// Raw bits the source generated to produce this batch (before conditioning).
    pub raw_bits: usize,
}

/// Messages flowing from shard workers to the stream.
#[derive(Debug)]
pub(crate) enum Message {
    /// A batch of output bytes.
    Batch(Batch),
    /// The shard finished normally (budget exhausted or channel closed).
    ShardDone(usize),
    /// The shard's health monitor latched an alarm.
    Alarm {
        /// Index of the alarming shard.
        shard: usize,
        /// Typed alarm classification (also carried by the metrics and postmortems).
        kind: crate::metrics::AlarmKind,
        /// Rendered alarm reason.
        reason: String,
    },
}

/// Iterator over the batches produced by a pool.
///
/// Yields `Ok(Batch)` for output and `Err(EngineError::HealthAlarm)` when a shard
/// alarms; other shards keep producing, so consumers may continue iterating after an
/// error if partial output is acceptable.  Iteration ends when every shard has
/// terminated.
pub struct ByteStream {
    rx: Receiver<Message>,
    live_shards: usize,
    finished: Vec<bool>,
}

impl ByteStream {
    pub(crate) fn new(rx: Receiver<Message>, shards: usize) -> Self {
        Self {
            rx,
            live_shards: shards,
            finished: vec![false; shards],
        }
    }

    fn mark_finished(&mut self, shard: usize) {
        if let Some(flag) = self.finished.get_mut(shard) {
            if !*flag {
                *flag = true;
                self.live_shards -= 1;
            }
        }
    }

    /// Number of shards that have not yet terminated.
    pub fn live_shards(&self) -> usize {
        self.live_shards
    }

    /// Non-blocking variant of [`Iterator::next`]: polls the channel without parking
    /// the caller.
    ///
    /// Returns `Ok(Some(batch))` when a batch was ready, and `Ok(None)` when no batch
    /// is available *right now* or the stream has ended — disambiguate with
    /// [`ByteStream::live_shards`].
    ///
    /// # Errors
    ///
    /// Returns the alarm when the next pending message is a shard alarm.
    pub fn try_next(&mut self) -> Result<Option<Batch>> {
        while self.live_shards > 0 {
            match self.rx.try_recv() {
                Ok(Message::Batch(batch)) => return Ok(Some(batch)),
                Ok(Message::ShardDone(shard)) => self.mark_finished(shard),
                Ok(Message::Alarm {
                    shard,
                    kind,
                    reason,
                }) => {
                    self.mark_finished(shard);
                    return Err(EngineError::HealthAlarm {
                        shard,
                        kind,
                        reason,
                    });
                }
                Err(std::sync::mpsc::TryRecvError::Empty) => return Ok(None),
                Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                    self.live_shards = 0;
                }
            }
        }
        Ok(None)
    }

    /// Collects every remaining batch into one byte vector, failing on the first
    /// shard alarm.
    ///
    /// # Errors
    ///
    /// Returns the first alarm raised by any shard.
    pub fn read_to_end(&mut self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        for batch in self {
            out.extend_from_slice(&batch?.bytes);
        }
        Ok(out)
    }
}

impl Iterator for ByteStream {
    type Item = Result<Batch>;

    fn next(&mut self) -> Option<Self::Item> {
        while self.live_shards > 0 {
            match self.rx.recv() {
                Ok(Message::Batch(batch)) => return Some(Ok(batch)),
                Ok(Message::ShardDone(shard)) => self.mark_finished(shard),
                Ok(Message::Alarm {
                    shard,
                    kind,
                    reason,
                }) => {
                    self.mark_finished(shard);
                    return Some(Err(EngineError::HealthAlarm {
                        shard,
                        kind,
                        reason,
                    }));
                }
                // All senders dropped (workers died without a final message).
                Err(_) => {
                    self.live_shards = 0;
                }
            }
        }
        None
    }
}

/// Accumulates raw bits and drains packed bytes (MSB-first within each byte).
///
/// Bits are packed into bytes as they arrive, eight at a time by
/// [`ptrng_ais::bits::pack_into`], so the buffer holds one byte per eight pushed bits
/// (instead of one byte per bit) and draining is a buffer handoff rather than a
/// repacking pass.
#[derive(Debug, Default)]
pub struct BitPacker {
    packed: Vec<u8>,
    /// Bits of the next byte, carried until it is complete.
    partial: PartialByte,
}

impl BitPacker {
    /// Creates an empty packer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bits (one `0`/`1` per byte; each contributes its low bit).
    pub fn push_bits(&mut self, bits: &[u8]) {
        // One exact reservation per drained batch (drain_bytes hands the buffer off),
        // instead of repeated doubling growth from zero.
        self.packed.reserve(bits.len() / 8 + 1);
        self.partial.pack(bits, &mut self.packed);
    }

    /// Number of buffered bits not yet drained.
    pub fn pending_bits(&self) -> usize {
        self.packed.len() * 8 + self.partial.len()
    }

    /// Drains as many full bytes as are available, keeping the remainder bits.
    pub fn drain_bytes(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.packed)
    }
}

/// Unpacks bytes back into bits (MSB-first), the inverse of [`BitPacker`].
pub use ptrng_ais::bits::unpack_bytes as unpack_bits;

/// Shared byte budget: shards claim output bytes until the budget is exhausted.
#[derive(Debug)]
pub struct ByteBudget {
    remaining: AtomicU64,
    bounded: bool,
}

impl ByteBudget {
    /// Creates a budget; `None` is unlimited.
    pub fn new(limit: Option<u64>) -> Self {
        Self {
            remaining: AtomicU64::new(limit.unwrap_or(u64::MAX)),
            bounded: limit.is_some(),
        }
    }

    /// Claims up to `want` bytes; returns how many were granted (0 = budget spent).
    pub fn claim(&self, want: usize) -> usize {
        if !self.bounded {
            return want;
        }
        let want = want as u64;
        let mut current = self.remaining.load(Ordering::Relaxed);
        loop {
            let granted = current.min(want);
            if granted == 0 {
                return 0;
            }
            match self.remaining.compare_exchange_weak(
                current,
                current - granted,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return granted as usize,
                Err(actual) => current = actual,
            }
        }
    }

    /// Whether the budget has been fully claimed.
    pub fn exhausted(&self) -> bool {
        self.bounded && self.remaining.load(Ordering::Acquire) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::AlarmKind;
    use std::sync::mpsc::sync_channel;

    #[test]
    fn packing_round_trips() {
        let bits: Vec<u8> = (0..64).map(|i| ((i * 7 + 3) % 5 < 2) as u8).collect();
        let mut packer = BitPacker::new();
        packer.push_bits(&bits);
        let bytes = packer.drain_bytes();
        assert_eq!(bytes.len(), 8);
        assert_eq!(unpack_bits(&bytes), bits);
        assert_eq!(packer.pending_bits(), 0);
    }

    #[test]
    fn packer_keeps_remainder_bits() {
        let mut packer = BitPacker::new();
        packer.push_bits(&[1, 0, 1]);
        assert!(packer.drain_bytes().is_empty());
        assert_eq!(packer.pending_bits(), 3);
        packer.push_bits(&[1, 1, 1, 1, 1]);
        assert_eq!(packer.drain_bytes(), vec![0b1011_1111]);
    }

    #[test]
    fn budget_grants_until_exhausted() {
        let budget = ByteBudget::new(Some(10));
        assert_eq!(budget.claim(4), 4);
        assert_eq!(budget.claim(8), 6);
        assert_eq!(budget.claim(1), 0);
        assert!(budget.exhausted());
        let unlimited = ByteBudget::new(None);
        assert_eq!(unlimited.claim(1 << 20), 1 << 20);
        assert!(!unlimited.exhausted());
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Pushing bits in arbitrary chunkings equals one-shot packing, for any
            /// (also non-byte-aligned) total length, with the remainder retained.
            #[test]
            fn packing_is_chunking_invariant(
                bits in proptest::collection::vec(0u8..=1, 0..512),
                chunk in 1usize..64,
            ) {
                let mut packer = BitPacker::new();
                for piece in bits.chunks(chunk) {
                    packer.push_bits(piece);
                }
                prop_assert_eq!(packer.pending_bits(), bits.len());
                let bytes = packer.drain_bytes();
                prop_assert_eq!(bytes.len(), bits.len() / 8);
                prop_assert_eq!(packer.pending_bits(), bits.len() % 8);
                prop_assert_eq!(unpack_bits(&bytes), &bits[..(bits.len() / 8) * 8]);
            }

            /// The word kernel packs exactly as the per-bit loop it replaced, low
            /// bit of each sample, remainder carried across any chunking.
            #[test]
            fn packing_matches_the_per_bit_loop(
                samples in proptest::collection::vec(0u8..=255, 0..512),
                chunk in 1usize..80,
            ) {
                let mut packer = BitPacker::new();
                let (mut current, mut filled, mut expected) = (0u8, 0u8, Vec::new());
                let mut bytes = Vec::new();
                for piece in samples.chunks(chunk) {
                    packer.push_bits(piece);
                    bytes.extend(packer.drain_bytes());
                    for &bit in piece {
                        current = (current << 1) | (bit & 1);
                        filled += 1;
                        if filled == 8 {
                            expected.push(current);
                            current = 0;
                            filled = 0;
                        }
                    }
                    prop_assert_eq!(&bytes, &expected);
                    prop_assert_eq!(packer.pending_bits(), usize::from(filled));
                }
            }

            /// The packer keeps working after a drain: remainder bits join the next
            /// pushes seamlessly (scratch reuse across calls).
            #[test]
            fn drain_preserves_the_remainder_across_calls(
                first in proptest::collection::vec(0u8..=1, 0..64),
                second in proptest::collection::vec(0u8..=1, 0..64),
            ) {
                let mut packer = BitPacker::new();
                packer.push_bits(&first);
                let mut bytes = packer.drain_bytes();
                packer.push_bits(&second);
                bytes.extend(packer.drain_bytes());

                let mut all = first.clone();
                all.extend_from_slice(&second);
                let mut reference = BitPacker::new();
                reference.push_bits(&all);
                prop_assert_eq!(bytes, reference.drain_bytes());
            }

            /// Empty pushes are no-ops.
            #[test]
            fn empty_input_is_a_no_op(bits in proptest::collection::vec(0u8..=1, 0..32)) {
                let mut packer = BitPacker::new();
                packer.push_bits(&bits);
                packer.push_bits(&[]);
                prop_assert_eq!(packer.pending_bits(), bits.len());
            }
        }
    }

    #[test]
    fn stream_ends_after_every_shard_reports() {
        let (tx, rx) = sync_channel(8);
        let mut stream = ByteStream::new(rx, 2);
        tx.send(Message::Batch(Batch {
            shard: 0,
            bytes: vec![1, 2],
            raw_bits: 16,
        }))
        .unwrap();
        tx.send(Message::ShardDone(0)).unwrap();
        tx.send(Message::Alarm {
            shard: 1,
            kind: AlarmKind::Thermal,
            reason: "test".to_string(),
        })
        .unwrap();
        drop(tx);
        let first = stream.next().unwrap().unwrap();
        assert_eq!(first.bytes, vec![1, 2]);
        let second = stream.next().unwrap();
        assert!(matches!(
            second,
            Err(EngineError::HealthAlarm { shard: 1, .. })
        ));
        assert!(stream.next().is_none());
    }

    #[test]
    fn try_next_polls_without_blocking() {
        let (tx, rx) = sync_channel(8);
        let mut stream = ByteStream::new(rx, 1);
        // Empty channel: no batch, but the stream is still live.
        assert!(stream.try_next().unwrap().is_none());
        assert_eq!(stream.live_shards(), 1);
        tx.send(Message::Batch(Batch {
            shard: 0,
            bytes: vec![9],
            raw_bits: 8,
        }))
        .unwrap();
        assert_eq!(stream.try_next().unwrap().unwrap().bytes, vec![9]);
        tx.send(Message::Alarm {
            shard: 0,
            kind: AlarmKind::RepetitionCount,
            reason: "test".to_string(),
        })
        .unwrap();
        assert!(matches!(
            stream.try_next(),
            Err(EngineError::HealthAlarm { shard: 0, .. })
        ));
        assert!(stream.try_next().unwrap().is_none());
        assert_eq!(stream.live_shards(), 0);
    }

    #[test]
    fn read_to_end_aggregates_bytes() {
        let (tx, rx) = sync_channel(8);
        let mut stream = ByteStream::new(rx, 1);
        tx.send(Message::Batch(Batch {
            shard: 0,
            bytes: vec![1, 2, 3],
            raw_bits: 24,
        }))
        .unwrap();
        tx.send(Message::Batch(Batch {
            shard: 0,
            bytes: vec![4],
            raw_bits: 8,
        }))
        .unwrap();
        tx.send(Message::ShardDone(0)).unwrap();
        assert_eq!(stream.read_to_end().unwrap(), vec![1, 2, 3, 4]);
    }
}
