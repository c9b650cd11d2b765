//! The server's storage engine: a TTL-aware, collision-safe layer over
//! [`ConcurrentS3Fifo`], with an optional flash tier for degradation
//! dynamics and an optional fault injector for seeded latency faults.
//!
//! ## Payload encoding
//!
//! The concurrent cache keys by `u64`, the protocol keys by string. Keys
//! are hashed with [`cache_ds::FxHasher`] and the *full key is embedded in
//! the payload* so a hash collision reads as a miss, never as another
//! key's data:
//!
//! ```text
//! [expiry_ms: u64 LE][flags: u32 LE][klen: u16 LE][key bytes][data bytes]
//! ```
//!
//! `expiry_ms == 0` means "never expires"; otherwise it is milliseconds
//! since the store's epoch. Expiry is lazy: an expired entry is removed by
//! the `get` that finds it (memcached semantics).
//!
//! ## Flash tier
//!
//! When enabled, every set and every DRAM miss also drives the
//! [`FlashCache`] ladder with the same id stream. The flash tier holds no
//! payload bytes — DRAM is the source of truth — it exists to model device
//! dynamics: retries, error-budget trips to DRAM-only, probe-based
//! recovery. Its hit/miss result is ignored; only its *errors* surface,
//! as typed [`CacheError`]s that the protocol layer maps to
//! `SERVER_ERROR device-failure:/corruption:/degraded:` replies. A set
//! that returns such an error still landed in DRAM — the reply reports
//! the device fault, not data loss.

use bytes::Bytes;
use cache_concurrent::s3fifo::ConcurrentS3Fifo;
use cache_concurrent::ConcurrentCache;
use cache_ds::FxHasher;
use cache_faults::{FaultInjector, FaultPlan, FaultStats, OpClass};
use cache_flash::{AdmissionKind, FaultyDevice, FlashCache, FlashCacheConfig, FlashTier, ResilienceConfig};
use cache_obs::Scope;
use cache_types::CacheError;
use parking_lot::Mutex;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Fixed-size prefix of the payload encoding (expiry + flags + klen).
const HEADER_LEN: usize = 8 + 4 + 2;

/// Store configuration.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Entry capacity of the DRAM (S3-FIFO) tier.
    pub capacity: usize,
    /// Flash tier total bytes; 0 disables the flash tier.
    pub flash_total_bytes: u64,
    /// Seed for the flash device fault plan / delay injector. Ignored when
    /// the supplied plan is a no-op.
    pub fault_seed: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            capacity: 64 * 1024,
            flash_total_bytes: 0,
            fault_seed: 0,
        }
    }
}

/// One decoded hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Value {
    /// Client-opaque flags from the set.
    pub flags: u32,
    /// The stored data bytes.
    pub data: Vec<u8>,
}

/// Monotonic counters for STATS; all advisory.
#[derive(Debug, Default)]
pub struct StoreCounters {
    /// `get` calls.
    pub gets: AtomicU64,
    /// `get` calls that returned data.
    pub hits: AtomicU64,
    /// `set` calls.
    pub sets: AtomicU64,
    /// `delete` calls that removed something.
    pub deletes: AtomicU64,
    /// Entries removed lazily because their TTL had passed.
    pub expired: AtomicU64,
    /// Hash collisions observed (payload key != requested key).
    pub collisions: AtomicU64,
    /// Flash-tier errors surfaced, by kind.
    pub device_failures: AtomicU64,
    /// Checksum failures surfaced by the flash tier.
    pub corruptions: AtomicU64,
    /// Requests that observed the flash ladder tripping to DRAM-only.
    pub degraded: AtomicU64,
}

/// The storage engine shared by every shard thread.
pub struct TtlStore {
    cache: ConcurrentS3Fifo,
    epoch: Instant,
    /// Dynamics-only second tier (see module docs). Lock held only for the
    /// duration of one `request_checked` call.
    flash: Option<Mutex<FlashCache<FaultyDevice<FlashTier>>>>,
    /// Seeded latency-fault injector (satellite of the chaos suite); `None`
    /// when the plan carries no delay specs.
    delays: Option<Mutex<FaultInjector>>,
    /// Advisory counters for STATS.
    pub counters: StoreCounters,
}

impl std::fmt::Debug for TtlStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TtlStore")
            .field("len", &self.cache.len())
            .field("flash", &self.flash.is_some())
            .finish()
    }
}

/// Hashes a protocol key to the cache's u64 keyspace.
pub fn hash_key(key: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(key.as_bytes());
    h.finish()
}

/// Encodes a payload (see module docs for the layout).
pub fn encode_payload(expiry_ms: u64, flags: u32, key: &str, data: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(HEADER_LEN + key.len() + data.len());
    v.extend_from_slice(&expiry_ms.to_le_bytes());
    v.extend_from_slice(&flags.to_le_bytes());
    v.extend_from_slice(&(key.len() as u16).to_le_bytes());
    v.extend_from_slice(key.as_bytes());
    v.extend_from_slice(data);
    v
}

/// Splits a payload into `(expiry_ms, flags, key bytes, data)`; `None` on a
/// buffer too short for what its header declares.
fn split_payload(buf: &[u8]) -> Option<(u64, u32, &[u8], &[u8])> {
    let (header, rest) = buf.split_at_checked(HEADER_LEN)?;
    let expiry_ms = u64::from_le_bytes(header[..8].try_into().ok()?);
    let flags = u32::from_le_bytes(header[8..12].try_into().ok()?);
    let klen = u16::from_le_bytes(header[12..].try_into().ok()?) as usize;
    let (key, data) = rest.split_at_checked(klen)?;
    Some((expiry_ms, flags, key, data))
}

/// Decodes a payload; returns `(expiry_ms, flags, key, data)` or `None` on
/// a malformed buffer (never stored by this server, but a decode failure
/// must read as a miss, not a panic).
pub fn decode_payload(buf: &[u8]) -> Option<(u64, u32, &str, &[u8])> {
    let (expiry_ms, flags, key, data) = split_payload(buf)?;
    Some((expiry_ms, flags, std::str::from_utf8(key).ok()?, data))
}

impl TtlStore {
    /// Builds the store. `plan` drives both the flash device faults and the
    /// delay injector; pass [`FaultPlan::none`] for a healthy store.
    pub fn new(cfg: StoreConfig, plan: FaultPlan) -> Self {
        let flash = (cfg.flash_total_bytes > 0).then(|| {
            let fcfg = FlashCacheConfig {
                total_bytes: cfg.flash_total_bytes,
                dram_fraction: 0.1,
                admission: AdmissionKind::SmallFifoTwoAccess,
            };
            let device_plan = FaultPlan {
                seed: plan.seed ^ cfg.fault_seed,
                schedules: plan.schedules.clone(),
                spike_latency: plan.spike_latency,
                delays: Vec::new(),
            };
            // Invariant: total_bytes > 0 here, so tier sizing cannot fail.
            #[allow(clippy::expect_used)]
            Mutex::new(
                FlashCache::faulty(fcfg, device_plan, ResilienceConfig::default())
                    .expect("flash config with total_bytes > 0 is valid"),
            )
        });
        let delays = (!plan.delays.is_empty()).then(|| {
            let delay_plan = FaultPlan {
                seed: plan.seed ^ cfg.fault_seed,
                schedules: Vec::new(),
                spike_latency: 0,
                delays: plan.delays.clone(),
            };
            Mutex::new(FaultInjector::new(delay_plan))
        });
        TtlStore {
            cache: ConcurrentS3Fifo::new(cfg.capacity),
            epoch: Instant::now(),
            flash,
            delays,
            counters: StoreCounters::default(),
        }
    }

    /// Milliseconds since the store's epoch (TTL clock).
    pub fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Draws the injected delay (in microseconds) for the next operation of
    /// `class`; 0 when no delay fault fires.
    pub fn next_delay_us(&self, class: OpClass) -> u64 {
        match &self.delays {
            Some(inj) => inj.lock().next_delay(class),
            None => 0,
        }
    }

    /// Delay-injector stats (zeroed when no injector is attached).
    pub fn delay_stats(&self) -> FaultStats {
        match &self.delays {
            Some(inj) => inj.lock().stats(),
            None => FaultStats::default(),
        }
    }

    /// Drives the flash ladder for one op; converts fault errors and
    /// updates the per-kind counters.
    // ORDERING: Relaxed counter bumps — advisory stats.
    fn touch_flash(&self, id: u64, size: u32) -> Result<(), CacheError> {
        let Some(flash) = &self.flash else {
            return Ok(());
        };
        let r = flash.lock().request_checked(id, size);
        match r {
            Ok(_) => Ok(()), // hit/miss result is ignored: dynamics only
            Err(e) => {
                match &e {
                    CacheError::DeviceFailure(_) => {
                        self.counters.device_failures.fetch_add(1, Ordering::Relaxed)
                    }
                    CacheError::Corruption(_) => {
                        self.counters.corruptions.fetch_add(1, Ordering::Relaxed)
                    }
                    CacheError::Degraded(_) => {
                        self.counters.degraded.fetch_add(1, Ordering::Relaxed)
                    }
                    _ => 0,
                };
                Err(e)
            }
        }
    }

    /// Stores `key → data`. `exptime_s == 0` means no expiry. Returns
    /// `Err` only for flash-tier faults — the DRAM write has already
    /// landed when that happens.
    // ORDERING: Relaxed counter bump — advisory stats.
    pub fn set(&self, key: &str, flags: u32, exptime_s: u64, data: &[u8]) -> Result<(), CacheError> {
        self.counters.sets.fetch_add(1, Ordering::Relaxed);
        let expiry_ms = if exptime_s == 0 {
            0
        } else {
            self.now_ms() + exptime_s.saturating_mul(1000)
        };
        let id = hash_key(key);
        let payload = encode_payload(expiry_ms, flags, key, data);
        let size = payload.len() as u32;
        self.cache.insert(id, Bytes::from(payload));
        self.touch_flash(id, size)
    }

    /// Looks up `key`. `Ok(None)` is a clean miss; `Err` is a flash-tier
    /// fault on the miss path (the DRAM lookup itself cannot fail).
    pub fn get(&self, key: &str) -> Result<Option<Value>, CacheError> {
        self.get_with(key, |flags, data| Value {
            flags,
            data: data.to_vec(),
        })
    }

    /// The hit path: looks up `key` and, on a hit, hands `on_hit` the flags
    /// and the data bytes where they are stored. Nothing is copied or
    /// allocated here; [`TtlStore::get`] is this with a copying `on_hit`.
    // ORDERING: Relaxed counter bumps — advisory stats.
    pub(crate) fn get_with<R>(
        &self,
        key: &str,
        on_hit: impl FnOnce(u32, &[u8]) -> R,
    ) -> Result<Option<R>, CacheError> {
        self.counters.gets.fetch_add(1, Ordering::Relaxed);
        let id = hash_key(key);
        if let Some(payload) = self.cache.get(id) {
            match split_payload(&payload) {
                Some((expiry_ms, flags, stored_key, data)) if stored_key == key.as_bytes() => {
                    if expiry_ms != 0 && self.now_ms() >= expiry_ms {
                        // Lazy expiry: the hit is stale, drop it.
                        self.counters.expired.fetch_add(1, Ordering::Relaxed);
                        self.cache.remove(id);
                    } else {
                        self.counters.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(Some(on_hit(flags, data)));
                    }
                }
                Some(_) => {
                    // Hash collision: another key's payload. A miss for us;
                    // leave the resident entry alone.
                    self.counters.collisions.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    // Undecodable payload (never written by this server):
                    // treat as a miss and purge it.
                    self.cache.remove(id);
                }
            }
        }
        // Miss path: drive the flash ladder (nominal object size — the
        // tier carries no payloads, only dynamics).
        self.touch_flash(id, 64).map(|()| None)
    }

    /// Deletes `key`; true when something was removed.
    // ORDERING: Relaxed counter bump — advisory stats.
    pub fn delete(&self, key: &str) -> bool {
        let removed = self.cache.remove(hash_key(key));
        if removed {
            self.counters.deletes.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Approximate resident entries.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Entry capacity of the DRAM tier.
    pub fn capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Aggregate DRAM-tier hit ratio and queue stats.
    pub fn cache_stats(&self) -> cache_concurrent::ShardStatsSnapshot {
        self.cache.aggregate_stats()
    }

    /// Flash-tier degradation state label for STATS (`none` without a
    /// flash tier).
    pub fn flash_state(&self) -> &'static str {
        match &self.flash {
            None => "none",
            Some(f) => match f.lock().degradation() {
                cache_faults::DegradationState::Healthy => "healthy",
                cache_faults::DegradationState::Degraded => "degraded",
            },
        }
    }

    /// Exports DRAM-tier counters plus store counters under `scope`.
    /// Intended for one final snapshot at shutdown (counters are added
    /// once, not sampled).
    // ORDERING: Relaxed counter loads — advisory snapshot at quiescence.
    pub fn export_obs(&self, scope: &Scope) {
        self.cache.export_obs(&scope.scope("dram"));
        let s = scope.scope("store");
        s.counter("gets").add(self.counters.gets.load(Ordering::Relaxed));
        s.counter("hits").add(self.counters.hits.load(Ordering::Relaxed));
        s.counter("sets").add(self.counters.sets.load(Ordering::Relaxed));
        s.counter("deletes").add(self.counters.deletes.load(Ordering::Relaxed));
        s.counter("expired").add(self.counters.expired.load(Ordering::Relaxed));
        s.counter("collisions").add(self.counters.collisions.load(Ordering::Relaxed));
        s.counter("device_failures")
            .add(self.counters.device_failures.load(Ordering::Relaxed));
        s.counter("corruptions").add(self.counters.corruptions.load(Ordering::Relaxed));
        s.counter("degraded").add(self.counters.degraded.load(Ordering::Relaxed));
        s.gauge("resident").set(self.cache.len() as i64);
    }
}

/// Appends a store error's typed `SERVER_ERROR` reply line to `out`.
pub fn error_reply(out: &mut Vec<u8>, e: &CacheError) {
    let (tag, msg) = match e {
        CacheError::DeviceFailure(m) => ("device-failure", m.as_str()),
        CacheError::Corruption(m) => ("corruption", m.as_str()),
        CacheError::Degraded(m) => ("degraded", m.as_str()),
        // The remaining variants cannot come out of the request path;
        // format defensively rather than panic.
        _ => ("internal", "unexpected error"),
    };
    out.extend_from_slice(b"SERVER_ERROR ");
    out.extend_from_slice(tag.as_bytes());
    out.extend_from_slice(b": ");
    // Strip CR/LF so an error message cannot forge protocol framing.
    out.extend(msg.bytes().filter(|b| *b != b'\r' && *b != b'\n'));
    out.extend_from_slice(b"\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_faults::{FaultKind, Schedule};

    fn store() -> TtlStore {
        TtlStore::new(
            StoreConfig {
                capacity: 1024,
                ..StoreConfig::default()
            },
            FaultPlan::none(),
        )
    }

    #[test]
    fn set_get_delete_roundtrip() {
        let s = store();
        s.set("hello", 7, 0, b"world").expect("healthy set");
        let v = s.get("hello").expect("healthy get").expect("hit");
        assert_eq!(v.flags, 7);
        assert_eq!(v.data, b"world");
        assert!(s.delete("hello"));
        assert!(s.get("hello").expect("healthy get").is_none());
        assert!(!s.delete("hello"), "second delete is a miss");
    }

    #[test]
    fn payload_roundtrip_and_malformed() {
        let p = encode_payload(12345, 9, "k", b"abc");
        let (exp, flags, key, data) = decode_payload(&p).expect("roundtrip");
        assert_eq!((exp, flags, key, data), (12345, 9, "k", b"abc".as_slice()));
        assert!(decode_payload(&[]).is_none());
        assert!(decode_payload(&[0u8; 13]).is_none());
        // klen pointing past the buffer must not panic.
        let mut bad = encode_payload(0, 0, "key", b"");
        bad[12] = 0xFF;
        bad[13] = 0xFF;
        assert!(decode_payload(&bad).is_none());
    }

    #[test]
    // ORDERING: Relaxed counter reads — single-threaded test assertions.
    fn ttl_expires_lazily() {
        let s = store();
        // Store an already-expired entry by encoding expiry directly.
        let id = hash_key("stale");
        let payload = encode_payload(1, 0, "stale", b"old");
        s.cache.insert(id, Bytes::from(payload));
        // now_ms() starts near 0 but strictly increases; wait past 1 ms.
        std::thread::sleep(std::time::Duration::from_millis(3));
        assert!(s.get("stale").expect("healthy").is_none(), "expired → miss");
        assert_eq!(s.counters.expired.load(Ordering::Relaxed), 1);
        assert_eq!(s.cache.get(id), None, "expired entry purged");
    }

    #[test]
    fn zero_exptime_never_expires() {
        let s = store();
        s.set("forever", 0, 0, b"v").expect("healthy");
        std::thread::sleep(std::time::Duration::from_millis(3));
        assert!(s.get("forever").expect("healthy").is_some());
    }

    #[test]
    // ORDERING: Relaxed counter reads — single-threaded test assertions.
    fn collision_reads_as_miss() {
        let s = store();
        // Plant a payload under "alpha"'s hash that claims to be "beta".
        let id = hash_key("alpha");
        s.cache.insert(id, Bytes::from(encode_payload(0, 0, "beta", b"x")));
        assert!(s.get("alpha").expect("healthy").is_none());
        assert_eq!(s.counters.collisions.load(Ordering::Relaxed), 1);
        assert!(s.cache.get(id).is_some(), "collision victim not purged");
    }

    #[test]
    // ORDERING: Relaxed counter reads — single-threaded test assertions.
    fn flash_faults_surface_as_typed_errors() {
        let plan = FaultPlan::new(42).with(FaultKind::TransientWrite, Schedule::Constant(1.0));
        let s = TtlStore::new(
            StoreConfig {
                capacity: 1024,
                flash_total_bytes: 8192,
                fault_seed: 7,
            },
            plan,
        );
        // Re-access a small keyset so DRAM-evicted objects qualify for
        // flash admission (SmallFifoTwoAccess admits on second sighting);
        // at p=1.0 the first flash write exhausts retries and surfaces.
        let mut saw_error = false;
        for i in 0..2000 {
            if s.set(&format!("k{}", i % 64), 0, 0, b"v").is_err() {
                saw_error = true;
                break;
            }
        }
        assert!(saw_error, "p=1.0 write faults must surface");
        let total = s.counters.device_failures.load(Ordering::Relaxed)
            + s.counters.degraded.load(Ordering::Relaxed);
        assert!(total > 0);
    }

    #[test]
    fn error_reply_is_typed_and_frame_safe() {
        let mut r = Vec::new();
        error_reply(&mut r, &CacheError::DeviceFailure("io\r\nboom".into()));
        let text = String::from_utf8(r).expect("ascii");
        assert!(text.starts_with("SERVER_ERROR device-failure: "));
        assert!(text.ends_with("\r\n"));
        assert_eq!(text.matches('\n').count(), 1, "no injected framing");
        let mut r = Vec::new();
        error_reply(&mut r, &CacheError::Degraded("dram-only".into()));
        assert!(String::from_utf8(r).expect("ascii").contains("degraded"));
    }

    #[test]
    fn injected_delays_are_seeded_and_deterministic() {
        let plan = FaultPlan::new(9).with_delays(1.0, 50, 100);
        let mk = || {
            TtlStore::new(
                StoreConfig {
                    capacity: 64,
                    ..StoreConfig::default()
                },
                plan.clone(),
            )
        };
        let a = mk();
        let b = mk();
        let da: Vec<u64> = (0..20).map(|_| a.next_delay_us(OpClass::Read)).collect();
        let db: Vec<u64> = (0..20).map(|_| b.next_delay_us(OpClass::Read)).collect();
        assert_eq!(da, db, "same plan → same delay stream");
        assert!(da.iter().all(|&d| (50..=100).contains(&d)));
        assert_eq!(a.delay_stats().delays, 20);
    }
}
