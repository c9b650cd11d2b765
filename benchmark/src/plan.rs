//! The harness's own inputs: RNG, Zipf sampler, op plans and self-checking
//! payloads. Nothing here calls into the program; the program only ever
//! sees the requests these functions generate.

/// SplitMix64: the harness RNG. Every input of a run derives from `--seed`
/// through this generator, so the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for `lane` (a connection, a thread, a phase).
    pub fn fork(seed: u64, lane: u64) -> Self {
        Rng(mix64(
            seed ^ mix64(lane.wrapping_add(0x9e37_79b9_7f4a_7c15)),
        ))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finalizer; also the payload tag function.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Zipf(α) over ranks `0..n` by rejection-inversion (Hörmann & Derflinger):
/// exact, O(1) per sample, no table, so a million-key popularity law costs
/// nothing to set up.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: f64,
    alpha: f64,
    h_x1: f64,
    h_n: f64,
    s: f64,
}

impl Zipf {
    pub fn new(n: u64, alpha: f64) -> Self {
        assert!(n >= 1 && alpha > 0.0, "Zipf needs n >= 1 and alpha > 0");
        let mut z = Zipf {
            n: n as f64,
            alpha,
            h_x1: 0.0,
            h_n: 0.0,
            s: 0.0,
        };
        z.h_x1 = z.h_integral(1.5) - 1.0;
        z.h_n = z.h_integral(z.n + 0.5);
        z.s = 2.0 - z.h_integral_inv(z.h_integral(2.5) - z.h(2.0));
        z
    }

    /// A rank in `0..n`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        loop {
            let u = self.h_n + rng.next_f64() * (self.h_x1 - self.h_n);
            let x = self.h_integral_inv(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n);
            if k - x <= self.s || u >= self.h_integral(k + 0.5) - self.h(k) {
                return k as u32 - 1;
            }
        }
    }

    fn h(&self, x: f64) -> f64 {
        (-self.alpha * x.ln()).exp()
    }

    fn h_integral(&self, x: f64) -> f64 {
        let lx = x.ln();
        helper2((1.0 - self.alpha) * lx) * lx
    }

    fn h_integral_inv(&self, x: f64) -> f64 {
        let t = (x * (1.0 - self.alpha)).max(-1.0);
        (helper1(t) * x).exp()
    }
}

/// `ln(1 + x) / x`, stable near 0.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    }
}

/// `(exp(x) - 1) / x`, stable near 0.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
    }
}

/// One wire operation of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Get,
    Set,
    Delete,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub key: u32,
}

/// The traffic mix of a wire workload. The shares are out of 100 and the
/// rest are gets.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub keys: u64,
    pub alpha: f64,
    pub set_pct: u64,
    pub delete_pct: u64,
    pub value_len: usize,
}

/// The op plan of connection `lane`: `len` ops drawn from `mix`. A
/// connection that needs more ops than `len` wraps around, so the plan is
/// bounded memory however long the run.
pub fn op_plan(mix: &Mix, seed: u64, lane: u64, len: usize) -> Vec<Op> {
    let mut rng = Rng::fork(seed, lane);
    let zipf = Zipf::new(mix.keys, mix.alpha);
    (0..len)
        .map(|_| {
            let key = zipf.sample(&mut rng);
            let roll = rng.next_u64() % 100;
            let kind = if roll < mix.set_pct {
                OpKind::Set
            } else if roll < mix.set_pct + mix.delete_pct {
                OpKind::Delete
            } else {
                OpKind::Get
            };
            Op { kind, key }
        })
        .collect()
}

/// Zipf-distributed keys for one in-process thread.
pub fn key_stream(keys: u64, alpha: f64, seed: u64, lane: u64, len: usize) -> Vec<u64> {
    let mut rng = Rng::fork(seed, lane);
    let zipf = Zipf::new(keys, alpha);
    (0..len).map(|_| u64::from(zipf.sample(&mut rng))).collect()
}

/// A Poisson arrival schedule: when each of the requests of `seconds` at
/// `rate_per_s` is due, in nanoseconds from the start. Independent users
/// arrive like this; a fixed interval would instead beat against every
/// periodic thing in the server (its idle sleep, for one) and make latency
/// depend on the phase the run happened to start in.
pub fn arrival_schedule(rate_per_s: f64, seconds: f64, seed: u64, lane: u64) -> Vec<u64> {
    let mut rng = Rng::fork(seed ^ 0xa441_7a15, lane);
    let mean_gap_ns = 1e9 / rate_per_s;
    let end_ns = seconds * 1e9;
    let mut t = 0.0f64;
    let mut due = Vec::with_capacity((rate_per_s * seconds * 1.05) as usize);
    loop {
        t += -mean_gap_ns * (1.0 - rng.next_f64()).ln();
        if t >= end_ns {
            return due;
        }
        due.push(t as u64);
    }
}

/// Wire key of key id `key`: fixed width, so request sizes do not depend on
/// which keys a seed happens to draw.
pub fn push_key(out: &mut Vec<u8>, key: u32) {
    out.extend_from_slice(b"key:");
    let mut digits = [b'0'; 8];
    let mut v = key;
    for d in digits.iter_mut().rev() {
        *d = b'0' + (v % 10) as u8;
        v /= 10;
    }
    out.extend_from_slice(&digits);
}

pub fn key_string(key: u32) -> String {
    let mut v = Vec::with_capacity(12);
    push_key(&mut v, key);
    String::from_utf8(v).expect("key bytes are ASCII")
}

/// Bytes of a value before the filler: tag, writer sequence number, writer
/// lane, key.
pub const VALUE_HEADER: usize = 24;

/// The filler every value carries after its header, so that a truncated or
/// shifted payload is caught. Fixed, not seeded: it is not an input.
pub fn filler() -> &'static [u8] {
    use std::sync::OnceLock;
    static FILL: OnceLock<Vec<u8>> = OnceLock::new();
    FILL.get_or_init(|| {
        let mut rng = Rng::new(0x5eed_f111);
        (0..8192).map(|_| rng.next_u64() as u8).collect()
    })
}

fn value_tag(key: u32, lane: u32, seq: u64) -> u64 {
    mix64(mix64(u64::from(key)) ^ mix64(seq ^ (u64::from(lane) << 48)))
}

/// Appends the value that writer `lane` stores under `key` with its
/// `seq`-th operation. The value names its key and its writer, and carries
/// a tag only the harness can compute, so a reader can tell a correct
/// payload from a stale, torn or misrouted one without a lookup table.
pub fn push_value(out: &mut Vec<u8>, key: u32, lane: u32, seq: u64, len: usize) {
    assert!(len >= VALUE_HEADER, "value too short for its header");
    out.extend_from_slice(&value_tag(key, lane, seq).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&lane.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&filler()[..len - VALUE_HEADER]);
}

/// Checks a payload read back for `key`: right length, right key, a tag
/// that matches its claimed writer and sequence number, intact filler.
/// Returns the writer lane and sequence number so the caller can check
/// that the write had been sent when the read came back.
pub fn check_value(data: &[u8], key: u32, len: usize) -> Option<(u32, u64)> {
    if data.len() != len || len < VALUE_HEADER {
        return None;
    }
    let tag = u64::from_le_bytes(data[0..8].try_into().ok()?);
    let seq = u64::from_le_bytes(data[8..16].try_into().ok()?);
    let lane = u32::from_le_bytes(data[16..20].try_into().ok()?);
    let stored_key = u32::from_le_bytes(data[20..24].try_into().ok()?);
    let ok = stored_key == key
        && tag == value_tag(key, lane, seq)
        && data[VALUE_HEADER..] == filler()[..len - VALUE_HEADER];
    ok.then_some((lane, seq))
}

/// Appends the request bytes of `op`, the `seq`-th operation of `lane`.
pub fn push_request(out: &mut Vec<u8>, op: Op, lane: u32, seq: u64, value_len: usize) {
    match op.kind {
        OpKind::Get => {
            out.extend_from_slice(b"get ");
            push_key(out, op.key);
            out.extend_from_slice(b"\r\n");
        }
        OpKind::Delete => {
            out.extend_from_slice(b"delete ");
            push_key(out, op.key);
            out.extend_from_slice(b"\r\n");
        }
        OpKind::Set => {
            out.extend_from_slice(b"set ");
            push_key(out, op.key);
            out.extend_from_slice(b" 0 0 ");
            out.extend_from_slice(value_len.to_string().as_bytes());
            out.extend_from_slice(b"\r\n");
            push_value(out, op.key, lane, seq, value_len);
            out.extend_from_slice(b"\r\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        keys: 10_000,
        alpha: 1.0,
        set_pct: 10,
        delete_pct: 5,
        value_len: 64,
    };

    fn request_bytes(plan: &[Op]) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, &op) in plan.iter().enumerate() {
            push_request(&mut out, op, 0, i as u64, MIX.value_len);
        }
        out
    }

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        let a = op_plan(&MIX, 7, 0, 5_000);
        assert_eq!(a, op_plan(&MIX, 7, 0, 5_000));
        assert_eq!(
            request_bytes(&a),
            request_bytes(&op_plan(&MIX, 7, 0, 5_000))
        );
        assert_ne!(a, op_plan(&MIX, 8, 0, 5_000));
        assert_ne!(
            a,
            op_plan(&MIX, 7, 1, 5_000),
            "lanes must not share a stream"
        );
    }

    #[test]
    fn plan_follows_its_mix() {
        let plan = op_plan(&MIX, 3, 0, 100_000);
        let sets = plan.iter().filter(|o| o.kind == OpKind::Set).count() as f64;
        let dels = plan.iter().filter(|o| o.kind == OpKind::Delete).count() as f64;
        assert!((sets / 1e5 - 0.10).abs() < 0.01, "set share {sets}");
        assert!((dels / 1e5 - 0.05).abs() < 0.01, "delete share {dels}");
        assert!(plan.iter().all(|o| u64::from(o.key) < MIX.keys));
    }

    #[test]
    fn zipf_matches_the_law() {
        let n = 1000u64;
        let zipf = Zipf::new(n, 1.0);
        let mut rng = Rng::new(11);
        let draws = 400_000;
        let mut counts = vec![0u32; n as usize];
        for _ in 0..draws {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        let harmonic: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        for rank in [0usize, 1, 9, 99] {
            let expect = draws as f64 / ((rank + 1) as f64 * harmonic);
            let got = f64::from(counts[rank]);
            assert!(
                (got - expect).abs() < 0.1 * expect,
                "rank {rank}: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn arrivals_are_poisson_at_the_asked_rate_and_repeat() {
        let due = arrival_schedule(10_000.0, 2.0, 5, 0);
        assert_eq!(due, arrival_schedule(10_000.0, 2.0, 5, 0));
        assert_ne!(due, arrival_schedule(10_000.0, 2.0, 6, 0));
        assert!(
            (due.len() as f64 - 20_000.0).abs() < 600.0,
            "{} arrivals",
            due.len()
        );
        assert!(due.windows(2).all(|w| w[0] <= w[1]) && *due.last().unwrap() < 2_000_000_000);
        // Exponential gaps: about 1/e of them are longer than the mean.
        let long = due.windows(2).filter(|w| w[1] - w[0] > 100_000).count() as f64;
        assert!((long / due.len() as f64 - (-1f64).exp()).abs() < 0.02);
    }

    #[test]
    fn values_check_themselves() {
        let mut v = Vec::new();
        push_value(&mut v, 42, 1, 9, 64);
        assert_eq!(check_value(&v, 42, 64), Some((1, 9)));
        assert_eq!(check_value(&v, 43, 64), None, "another key's value");
        assert_eq!(check_value(&v[..63], 42, 64), None, "truncated");
        let mut torn = v.clone();
        torn[40] ^= 1;
        assert_eq!(check_value(&torn, 42, 64), None, "torn filler");
        let mut forged = v;
        forged[8] ^= 1;
        assert_eq!(
            check_value(&forged, 42, 64),
            None,
            "sequence number not the tagged one"
        );
    }
}
