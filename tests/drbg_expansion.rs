//! Reseed-accounting tests of the DRBG expansion layer (`ExpandedTap`): the
//! ledger debit tracks the (re)seed count exactly, the per-seed output
//! allowance is never exceeded for any draw schedule, and a starved source
//! surfaces as the engine's `EntropyDeficit` refusal — never as unaccounted
//! output.  Racing drawers split the expanded stream exactly: the generate
//! calls are reserved under the tap's lock and hashed outside it, and no call's
//! bytes are repeated or skipped.

use std::sync::Barrier;

use ptrng_engine::expanded::{DrbgPolicy, DrbgSnapshot, ExpandedTap, DEFAULT_SEED_BITS_ACCOUNTED};
use ptrng_engine::fault::FaultPlan;
use ptrng_engine::health::HealthConfig;
use ptrng_engine::pool::{Engine, EngineConfig};
use ptrng_engine::pooled::PoolOptions;
use ptrng_engine::source::SourceSpec;
use ptrng_engine::EngineError;

/// A one-shard model-source engine wrapped in the expansion layer.
fn model_expanded(policy: DrbgPolicy, seed: u64) -> ExpandedTap {
    let config = EngineConfig::new(SourceSpec::model(0.5).expect("valid spec"))
        .shards(1)
        .seed(seed)
        .health(HealthConfig::default().without_startup_battery());
    let tap = Engine::spawn(config).expect("engine spawns").into_tap();
    ExpandedTap::new(tap, policy).expect("valid policy")
}

/// Four threads racing 64 KiB draws (one generate call each) on one tap get,
/// between them, exactly the chunks one thread draws from an equal tap with the
/// same seed, each chunk once — across reseeds, which land every fourth call.
#[test]
fn concurrent_draws_partition_the_expanded_stream_exactly() {
    const CHUNK: usize = 64 * 1024;
    const THREADS: usize = 4;
    const DRAWS_PER_THREAD: usize = 16;
    let policy = DrbgPolicy {
        reseed_after_bytes: 4 * CHUNK as u64,
        ..DrbgPolicy::default()
    };

    let reference = model_expanded(policy, 41);
    let mut expected: Vec<Vec<u8>> = (0..THREADS * DRAWS_PER_THREAD)
        .map(|_| {
            let mut chunk = vec![0u8; CHUNK];
            reference.draw(&mut chunk).expect("reference draw");
            chunk
        })
        .collect();
    let reference_snapshot = reference.snapshot();
    reference.shutdown().expect("shutdown");

    let racing = model_expanded(policy, 41);
    let start = Barrier::new(THREADS);
    let mut drawn: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    (0..DRAWS_PER_THREAD)
                        .map(|_| {
                            let mut chunk = vec![0u8; CHUNK];
                            racing.draw(&mut chunk).expect("racing draw");
                            chunk
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("drawer thread joins"))
            .collect()
    });
    let racing_snapshot = racing.snapshot();
    racing.shutdown().expect("shutdown");

    expected.sort();
    let before = expected.len();
    expected.dedup();
    assert_eq!(expected.len(), before, "the reference chunks are distinct");
    drawn.sort();
    assert!(
        drawn == expected,
        "racing draws repeat or skip a generate call"
    );
    let counters = |snap: DrbgSnapshot| {
        (
            snap.generates,
            snap.reseeds,
            snap.bytes_total,
            snap.seed_bits_debited,
        )
    };
    assert_eq!(counters(racing_snapshot), counters(reference_snapshot));
    assert_eq!(
        racing_snapshot.reseeds,
        (THREADS * DRAWS_PER_THREAD / 4) as u64
    );
}

mod property {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// For any draw schedule, the seed economy is exact: the DRBG never
        /// emits past `reseed_after_bytes` on one seed, the (re)seed count is
        /// precisely `ceil(total / allowance)`, and every (re)seed debits the
        /// ledger by exactly `seed_bits_accounted` — no free bytes, no double
        /// charges.
        #[test]
        fn debit_matches_the_seed_economy(
            draws in proptest::collection::vec(1usize..6000, 1..8),
            allowance in 1024u64..16384,
        ) {
            let policy = DrbgPolicy {
                reseed_after_bytes: allowance,
                ..DrbgPolicy::default()
            };
            let tap = model_expanded(policy, 11);
            let mut total = 0u64;
            for &len in &draws {
                let mut out = vec![0u8; len];
                tap.draw(&mut out).expect("a healthy model source always funds");
                total += len as u64;
            }
            let snap = tap.snapshot();
            prop_assert_eq!(snap.bytes_total, total);
            prop_assert_eq!(snap.reseeds, total.div_ceil(allowance));
            prop_assert_eq!(
                snap.seed_bits_debited,
                snap.reseeds * DEFAULT_SEED_BITS_ACCOUNTED
            );
            prop_assert!(snap.bytes_since_reseed <= allowance);
            // Exact, not chunk-granular: the last seed carries the remainder.
            prop_assert_eq!(
                snap.bytes_since_reseed,
                total - (snap.reseeds - 1) * allowance
            );
            tap.shutdown().expect("shutdown");
        }

        /// Prediction resistance pays one funded seed per generate call, for
        /// any request size (large requests split at the 2^19-bit cap, and each
        /// internal generate gets its own fresh seed).
        #[test]
        fn prediction_resistance_pays_one_seed_per_generate(
            lens in proptest::collection::vec(1usize..150_000, 1..3),
        ) {
            let policy = DrbgPolicy {
                prediction_resistance: true,
                ..DrbgPolicy::default()
            };
            let tap = model_expanded(policy, 23);
            for &len in &lens {
                let mut out = vec![0u8; len];
                tap.draw(&mut out).expect("a healthy model source always funds");
            }
            let snap = tap.snapshot();
            prop_assert_eq!(snap.reseeds, snap.generates);
            prop_assert_eq!(
                snap.seed_bits_debited,
                snap.reseeds * DEFAULT_SEED_BITS_ACCOUNTED
            );
            tap.shutdown().expect("shutdown");
        }
    }
}

/// A permanently stuck pool child drops the dynamic claim below the seed-funding
/// floor: the next due reseed must refuse with `EntropyDeficit` (per-bit terms,
/// static ledger attached), and the refused draw must not move the output or
/// debit counters — starvation is a refusal, never silent degradation.
#[test]
fn starved_source_yields_a_deficit_not_unaccounted_output() {
    let spec = match SourceSpec::parse("pool:model:0.6+model:0.6+model:0.6").expect("valid spec") {
        SourceSpec::Pool { children, .. } => SourceSpec::Pool {
            children,
            options: PoolOptions {
                quarantine_draws: 2,
                probation_draws: 4,
                stall_ms: None,
                ..PoolOptions::default()
            },
        },
        other => panic!("expected a pool spec, parsed {other:?}"),
    };
    let mut config = EngineConfig::new(spec)
        .seed(97)
        .batch_bits(8192)
        .health(HealthConfig::default().without_startup_battery())
        // No `for=`: the child sticks permanently and stays quarantined.
        .fault(Some(
            FaultPlan::parse("child=1,kind=stuck,at=2KiB").expect("valid plan"),
        ));
    config.queue_batches = 1;
    let tap = Engine::spawn(config).expect("engine spawns").into_tap();
    let expanded = ExpandedTap::new(
        tap.clone(),
        DrbgPolicy {
            reseed_after_bytes: 2048,
            ..DrbgPolicy::default()
        },
    )
    .expect("valid policy");

    // While every child is healthy, the first seed funds.
    let mut out = vec![0u8; 2048];
    expanded
        .draw(&mut out)
        .expect("healthy pool funds the seed");

    let mut deficit = None;
    for _ in 0..200 {
        // Advance the conditioned stream into the permanent fault window.
        let mut advance = [0u8; 1024];
        assert_eq!(tap.draw(&mut advance), advance.len(), "pool keeps serving");
        // Every 2048-byte draw exhausts the allowance, so each one reseeds.
        match expanded.draw(&mut out) {
            Ok(()) => {}
            Err(error) => {
                deficit = Some(error);
                break;
            }
        }
    }
    let error = deficit.expect("the starved reseed never refused");
    match &error {
        EngineError::EntropyDeficit {
            accounted,
            required,
            ledger,
            ..
        } => {
            // Per-bit terms, exactly like the engine's spawn-time refusal.
            assert!(
                accounted + 1e-9 < *required,
                "dip below the funding floor: {accounted} vs {required}"
            );
            assert!(*required <= 1.0, "per-bit value, not a total: {required}");
            assert!(
                ledger.min_entropy_per_bit() > 0.9,
                "the static accounting trail rides the refusal"
            );
        }
        other => panic!("expected EntropyDeficit, got {other}"),
    }

    // A refused draw emits nothing and debits nothing.
    let before = expanded.snapshot();
    let mut small = [0u8; 16];
    if expanded.draw(&mut small).is_err() {
        let after = expanded.snapshot();
        assert_eq!(
            before.bytes_total, after.bytes_total,
            "no unaccounted output"
        );
        assert_eq!(before.seed_bits_debited, after.seed_bits_debited);
        assert_eq!(before.reseeds, after.reseeds);
    }
    expanded.shutdown().expect("shutdown");
}
