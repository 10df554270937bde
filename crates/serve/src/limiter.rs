//! Per-client token-bucket rate limiting, denominated in entropy **bytes**.
//!
//! Entropy is a metered resource — the engine produces a bounded number of accounted
//! bytes per second — so the limiter charges what a request *costs* (its byte count),
//! not merely that it happened.  Each client IP owns one bucket of `burst_bytes`
//! capacity refilled at `bytes_per_sec`; a request either fits its cost in the bucket
//! now or is refused with the number of seconds after which it would fit
//! (the `Retry-After` value of the HTTP 429).

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Mutex;
use std::time::Instant;

/// Upper bound on tracked clients; beyond it, full (idle) buckets are evicted first.
const MAX_TRACKED_CLIENTS: usize = 4096;

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    refilled: Instant,
}

/// A thread-safe token-bucket rate limiter keyed by client IP.
#[derive(Debug)]
pub struct RateLimiter {
    bytes_per_sec: f64,
    burst_bytes: f64,
    buckets: Mutex<HashMap<IpAddr, Bucket>>,
}

impl RateLimiter {
    /// Creates a limiter granting `bytes_per_sec` sustained and `burst_bytes` burst
    /// capacity per client (both must be positive; a request larger than the burst
    /// can never be admitted and is refused with the time it would take to earn the
    /// missing tokens).
    pub fn new(bytes_per_sec: u64, burst_bytes: u64) -> Result<Self, String> {
        if bytes_per_sec == 0 || burst_bytes == 0 {
            return Err("rate limits must be positive (omit the limiter for unlimited)".into());
        }
        Ok(Self {
            bytes_per_sec: bytes_per_sec as f64,
            burst_bytes: burst_bytes as f64,
            buckets: Mutex::new(HashMap::new()),
        })
    }

    /// Tries to charge `cost` bytes to `client` at time `now`.
    ///
    /// # Errors
    ///
    /// Returns the seconds until the charge would succeed (the `Retry-After` hint).
    pub fn try_acquire(&self, client: IpAddr, cost: u64, now: Instant) -> Result<(), f64> {
        let cost = cost as f64;
        let mut buckets = self.buckets.lock().expect("limiter lock poisoned");
        if buckets.len() >= MAX_TRACKED_CLIENTS && !buckets.contains_key(&client) {
            // Evict clients whose bucket would be full *after* refill: tokens are
            // only updated lazily inside charges, so an idle client's stored count
            // is stale and must be projected to `now` before comparing.
            let (rate, burst) = (self.bytes_per_sec, self.burst_bytes);
            buckets.retain(|_, b| {
                let idle = now.saturating_duration_since(b.refilled).as_secs_f64();
                b.tokens + idle * rate < burst
            });
        }
        let bucket = buckets.entry(client).or_insert(Bucket {
            tokens: self.burst_bytes,
            refilled: now,
        });
        // Refill lazily; `saturating_duration_since` tolerates out-of-order `now`s
        // from racing threads.
        let elapsed = now.saturating_duration_since(bucket.refilled).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.bytes_per_sec).min(self.burst_bytes);
        bucket.refilled = now;
        if cost <= bucket.tokens {
            bucket.tokens -= cost;
            Ok(())
        } else {
            Err((cost - bucket.tokens) / self.bytes_per_sec)
        }
    }

    /// Number of client buckets currently tracked (bounded by eviction of
    /// refilled-to-full idle buckets once the map reaches its cap).
    #[cfg(test)]
    fn tracked_clients(&self) -> usize {
        self.buckets.lock().expect("limiter lock poisoned").len()
    }
}

/// Per-IP **concurrent-connection** fairness, layered under the byte-denominated
/// [`RateLimiter`]: the token bucket prices what a client *draws*, the gate caps
/// how many sockets it may *hold open* at once — the resource a slow-loris or
/// idle-connection flood actually consumes on an event-loop server.
#[derive(Debug)]
pub struct ConnectionGate {
    max_per_ip: usize,
    counts: Mutex<HashMap<IpAddr, usize>>,
}

impl ConnectionGate {
    /// A gate admitting at most `max_per_ip` concurrent connections per client
    /// IP; `0` disables the cap (every client admitted).
    pub fn new(max_per_ip: usize) -> Self {
        Self {
            max_per_ip,
            counts: Mutex::new(HashMap::new()),
        }
    }

    /// Registers one connection for `client`; `false` means the client is at its
    /// cap and the connection must be refused (nothing was registered).
    pub fn try_register(&self, client: IpAddr) -> bool {
        if self.max_per_ip == 0 {
            return true;
        }
        let mut counts = self.counts.lock().expect("gate lock poisoned");
        let held = counts.entry(client).or_insert(0);
        if *held >= self.max_per_ip {
            return false;
        }
        *held += 1;
        true
    }

    /// Releases one previously registered connection for `client`.
    pub fn release(&self, client: IpAddr) {
        if self.max_per_ip == 0 {
            return;
        }
        let mut counts = self.counts.lock().expect("gate lock poisoned");
        if let Some(held) = counts.get_mut(&client) {
            *held = held.saturating_sub(1);
            if *held == 0 {
                counts.remove(&client);
            }
        }
    }

    /// Connections currently registered for `client`.
    #[cfg(test)]
    fn active(&self, client: IpAddr) -> usize {
        self.counts
            .lock()
            .expect("gate lock poisoned")
            .get(&client)
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use std::time::Duration;

    fn ip(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, last))
    }

    #[test]
    fn burst_is_granted_then_sustained_rate_applies() {
        let limiter = RateLimiter::new(1000, 4000).unwrap();
        let t0 = Instant::now();
        // The full burst fits immediately…
        assert!(limiter.try_acquire(ip(1), 4000, t0).is_ok());
        // …then an immediate follow-up is refused with a usable retry hint.
        let retry = limiter.try_acquire(ip(1), 1000, t0).unwrap_err();
        assert!((retry - 1.0).abs() < 1e-9, "{retry}");
        // After the hinted wait, the charge succeeds.
        let t1 = t0 + Duration::from_secs_f64(retry);
        assert!(limiter.try_acquire(ip(1), 1000, t1).is_ok());
    }

    #[test]
    fn clients_are_isolated() {
        let limiter = RateLimiter::new(100, 100).unwrap();
        let t0 = Instant::now();
        assert!(limiter.try_acquire(ip(1), 100, t0).is_ok());
        assert!(limiter.try_acquire(ip(1), 1, t0).is_err());
        assert!(limiter.try_acquire(ip(2), 100, t0).is_ok());
    }

    #[test]
    fn refill_caps_at_the_burst() {
        let limiter = RateLimiter::new(1000, 2000).unwrap();
        let t0 = Instant::now();
        assert!(limiter.try_acquire(ip(3), 2000, t0).is_ok());
        // An hour later the bucket holds one burst, not an hour of rate.
        let t1 = t0 + Duration::from_secs(3600);
        assert!(limiter.try_acquire(ip(3), 2000, t1).is_ok());
        assert!(limiter.try_acquire(ip(3), 1, t1).is_err());
    }

    #[test]
    fn oversized_requests_report_the_earn_time() {
        let limiter = RateLimiter::new(100, 500).unwrap();
        let t0 = Instant::now();
        // 700 > burst 500: 200 missing tokens at 100 B/s → 2 s (the bucket being
        // full, the request still can never fit — callers cap requests separately).
        let retry = limiter.try_acquire(ip(4), 700, t0).unwrap_err();
        assert!((retry - 2.0).abs() < 1e-9, "{retry}");
    }

    #[test]
    fn idle_clients_are_evicted_once_the_map_fills() {
        let limiter = RateLimiter::new(1000, 1000).unwrap();
        let t0 = Instant::now();
        // Fill the map: every client spends a token, so every stored count is
        // stale-below-burst.
        for i in 0..super::MAX_TRACKED_CLIENTS as u32 {
            let client = IpAddr::V4(Ipv4Addr::from(0x0a00_0000 + i));
            assert!(limiter.try_acquire(client, 1, t0).is_ok());
        }
        assert_eq!(limiter.tracked_clients(), super::MAX_TRACKED_CLIENTS);
        // Ten seconds later every idle bucket has refilled to the burst; a new
        // client (outside the 10.0.0.0/8 range above) must trigger eviction
        // instead of growing the map past the cap.
        let t1 = t0 + Duration::from_secs(10);
        let newcomer = IpAddr::V4(Ipv4Addr::new(192, 168, 0, 1));
        assert!(limiter.try_acquire(newcomer, 1, t1).is_ok());
        assert_eq!(
            limiter.tracked_clients(),
            1,
            "projected-full idle buckets are evicted"
        );
    }

    #[test]
    fn active_clients_survive_eviction() {
        let limiter = RateLimiter::new(10, 1000).unwrap();
        let t0 = Instant::now();
        // One busy client with a fully drained bucket (needs 100 s to refill)…
        assert!(limiter.try_acquire(ip(1), 1000, t0).is_ok());
        // …and a map full of one-shot clients (each needs 0.1 s to refill).
        for i in 1..super::MAX_TRACKED_CLIENTS as u32 {
            let client = IpAddr::V4(Ipv4Addr::from(0x0b00_0000 + i));
            assert!(limiter.try_acquire(client, 1, t0).is_ok());
        }
        // Ten seconds later the one-shot buckets are projected full and evicted,
        // but the busy client's debt is remembered.
        let t1 = t0 + Duration::from_secs(10);
        assert!(limiter.try_acquire(ip(2), 1, t1).is_ok());
        assert_eq!(limiter.tracked_clients(), 2, "busy client + new client");
        assert!(
            limiter.try_acquire(ip(1), 1000, t1).is_err(),
            "the surviving bucket still carries its spent budget"
        );
    }

    #[test]
    fn zero_parameters_are_rejected() {
        assert!(RateLimiter::new(0, 100).is_err());
        assert!(RateLimiter::new(100, 0).is_err());
    }

    #[test]
    fn connection_gate_caps_per_ip_and_releases() {
        let gate = ConnectionGate::new(2);
        assert!(gate.try_register(ip(1)));
        assert!(gate.try_register(ip(1)));
        assert!(!gate.try_register(ip(1)), "third connection refused");
        assert!(gate.try_register(ip(2)), "other clients unaffected");
        assert_eq!(gate.active(ip(1)), 2);
        gate.release(ip(1));
        assert_eq!(gate.active(ip(1)), 1);
        assert!(gate.try_register(ip(1)), "released slot is reusable");
        gate.release(ip(1));
        gate.release(ip(1));
        assert_eq!(gate.active(ip(1)), 0, "entries drain back out of the map");
        gate.release(ip(1)); // over-release is a no-op, never an underflow
        assert_eq!(gate.active(ip(1)), 0);
    }

    #[test]
    fn zero_cap_disables_the_gate() {
        let gate = ConnectionGate::new(0);
        for _ in 0..10_000 {
            assert!(gate.try_register(ip(9)));
        }
        assert_eq!(gate.active(ip(9)), 0, "uncapped gates track nothing");
    }
}
