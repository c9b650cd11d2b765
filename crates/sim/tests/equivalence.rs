//! Pre-interned ⇔ keyed equivalence.
//!
//! A slab policy driven with pre-interned slots and the same policy behind
//! the interning `Keyed` adapter (which reuses a ghostless policy's slots)
//! must be *decision identical*: same misses, same evictions, same miss
//! ratios, bit for bit.
//! Every registry algorithm is replayed through both `simulate_named` (the
//! pre-interned door) and the registry's keyed policy, driven one request
//! at a time, across three workload shapes, and the first of them again,
//! each request twice, on a clock that ticks once per 32 requests. The keyed policy's invariants
//! (`Keyed::validate`: the policy's own, then mapped, free and scratch
//! slots partitioning the slab) are checked after every request at small
//! capacities and at the end of the larger runs, where checking each
//! request would cost minutes in a debug build.

use cache_ds::Histogram;
use cache_policies::registry::ALL_ALGORITHMS;
use cache_sim::{simulate_named, CacheSizeSpec, SimConfig};
use cache_trace::gen::{SizeModel, WorkloadSpec};
use cache_trace::Trace;
use cache_types::{Op, PolicyStats, Request};

/// The three workload shapes: pure Zipfian, scan-heavy (scan resistance is
/// where 2Q/S3-FIFO ghost logic earns its keep), and variable object sizes
/// replayed with sizes honored.
fn workloads() -> Vec<(Trace, SimConfig)> {
    let zipf = zipf_workload();

    let mut scan_spec = WorkloadSpec::zipf("scan-heavy", 30_000, 2_000, 0.9, 7);
    scan_spec.scan_fraction = 0.4;
    scan_spec.scan_len = 100;
    scan_spec.scan_space = 4_000;
    let scan = scan_spec.generate();

    let mut sized_spec = WorkloadSpec::zipf("sized", 20_000, 2_000, 1.0, 11);
    sized_spec.size_model = SizeModel::Uniform { min: 10, max: 1000 };
    let sized = sized_spec.generate();
    let sized_cfg = SimConfig {
        size: CacheSizeSpec::FractionOfBytes(0.1),
        ignore_size: false,
        min_objects: 0,
        floor_objects: 0,
    };

    vec![
        (zipf, SimConfig::large()),
        (scan, SimConfig::large()),
        (sized, sized_cfg),
    ]
}

fn zipf_workload() -> Trace {
    WorkloadSpec::zipf("zipf", 30_000, 3_000, 1.0, 42).generate()
}

/// The Zipf workload with every request made twice in a row, on a clock
/// that ticks once per 32 requests (a `Trace` stamps request `i` at time
/// `i`, so these drive both doors as requests). Every object admitted is
/// hit at once, so LRU-2 evicts among warm pages by penultimate access, and
/// sixteen of those share each tick: its tie-break decides, and the keyed
/// door, which reuses freed slots, calls the tied objects by other slots
/// than the pre-interned door does.
fn coarse_clock_requests() -> Vec<Request> {
    zipf_workload()
        .iter()
        .flat_map(|r| [r, r])
        .zip(0u64..)
        .map(|(r, t)| Request { time: t / 32, ..r })
        .collect()
}

/// Replays `trace` under `cfg` through both doors and asserts the results
/// are bit-identical.
fn assert_equivalent(name: &str, trace: &Trace, cfg: &SimConfig, validate: Validate) {
    let fast = simulate_named(name, trace, cfg)
        .unwrap_or_else(|e| panic!("{name} on {}: {e}", trace.name))
        .expect("no min_objects filter configured");
    let capacity = cfg.capacity_for(trace);
    let keyed = drive_keyed(name, capacity, &trace.to_requests(), cfg.ignore_size, validate);
    let stats = keyed.stats;

    let ctx = format!(
        "{name} on {} (capacity {:?}, ignore_size={})",
        trace.name, cfg.size, cfg.ignore_size
    );
    assert_eq!(fast.algorithm, keyed.name, "{ctx}: name");
    assert_eq!(fast.capacity, keyed.capacity, "{ctx}: capacity");
    assert_eq!(fast.requests, stats.gets, "{ctx}: requests");
    assert_eq!(fast.misses, stats.misses, "{ctx}: misses");
    assert_eq!(fast.evictions, stats.evictions, "{ctx}: evictions");
    assert_eq!(
        fast.miss_ratio.to_bits(),
        stats.miss_ratio().to_bits(),
        "{ctx}: miss_ratio {} vs {}",
        fast.miss_ratio,
        stats.miss_ratio()
    );
    assert_eq!(
        fast.byte_miss_ratio.to_bits(),
        stats.byte_miss_ratio().to_bits(),
        "{ctx}: byte_miss_ratio"
    );
    assert_eq!(
        fast.one_hit_eviction_fraction.to_bits(),
        keyed.freq_at_eviction.zero_fraction().to_bits(),
        "{ctx}: one-hit fraction"
    );
    assert_eq!(
        fast.freq_at_eviction.count(),
        keyed.freq_at_eviction.count(),
        "{ctx}: eviction histogram count"
    );
}

#[test]
fn dense_and_keyed_paths_are_bit_identical() {
    for (trace, cfg) in workloads() {
        for name in ALL_ALGORITHMS {
            assert_equivalent(name, &trace, &cfg, Validate::AtEnd);
        }
    }
    let requests = coarse_clock_requests();
    let capacity = SimConfig::large().capacity_for(&zipf_workload());
    for name in ALL_ALGORITHMS {
        assert_eq!(
            fingerprint(name, capacity, &requests, true),
            dense_fingerprint(name, capacity, &requests, true),
            "{name} on a coarse clock (misses, evictions, evicted-id hash)"
        );
    }
}

/// Degenerate capacities: the full registry × {unit-size, sized} ×
/// capacity {1, 2}. A one- or two-byte cache forces an eviction on nearly
/// every insert and exercises the `max(1)` segment-sizing floors (small
/// queues, windows, protected segments) that normal capacities never hit.
#[test]
fn dense_and_keyed_agree_at_degenerate_capacities() {
    let mut spec = WorkloadSpec::zipf("tiny-cap", 5_000, 200, 1.0, 23);
    // Sizes 1..=3: at capacity 2 some objects fit and some are uncacheable,
    // covering both sides of the size guard.
    spec.size_model = SizeModel::Uniform { min: 1, max: 3 };
    let trace = spec.generate();
    for capacity in [1u64, 2] {
        for ignore_size in [true, false] {
            let cfg = SimConfig {
                size: CacheSizeSpec::Bytes(capacity),
                ignore_size,
                min_objects: 0,
                floor_objects: 0,
            };
            for name in ALL_ALGORITHMS {
                assert_equivalent(name, &trace, &cfg, Validate::EachRequest);
            }
        }
    }
}

/// Mixed gets, sets and deletes of sizes 1..=8 over 200 ids: the stream
/// shape the invariant observer sweeps.
fn mixed_requests(requests: u64, seed: u64) -> Vec<Request> {
    let mut rng = cache_ds::SplitMix64::new(seed);
    (0..requests)
        .map(|time| {
            let (id, size) = (rng.next_below(200), 1 + rng.next_below(8) as u32);
            let op = match rng.next_below(100) {
                0..=3 => Op::Set,
                4..=7 => Op::Delete,
                _ => Op::Get,
            };
            Request { id, size, time, op }
        })
        .collect()
}

/// `(misses, evictions, FNV-1a of the evicted ids, FNV-1a of the
/// per-request outcomes)`: what one run did, down to each request's answer.
type Print = (u64, u64, u64, u64);

/// A name and its pinned `(misses, evictions, FNV-1a of the evicted ids)`
/// on each of the three workloads.
type Golden = (&'static str, [(u64, u64, u64); 3]);

/// The `(capacity, ignore_size)` cells of [`PROTOCOL`]: where ghosts fill and
/// slots are reused, sizes honoured and ignored; and a capacity below the
/// largest size (8), where some `Get`s are `Uncacheable` and some `Set`s
/// admit nothing.
const PROTOCOL_CELLS: [(u64, bool); 3] = [(64, false), (64, true), (6, false)];

/// Every name's request protocol — hit, miss, `Uncacheable`, `Set` as
/// remove-then-admit, `Delete`, and the counts they keep — pinned over
/// `mixed_requests(5_000, 0x0B5E_7EED)` in each of [`PROTOCOL_CELLS`].
/// Captured at ed35492, where each slab policy still served `Get`, `Set`
/// and `Delete` in its own copy.
const PROTOCOL: [(&str, [Print; 3]); 26] = [
    (
        "FIFO",
        [
            (4240, 4419, 15146647381132198379, 11071733144902554393),
            (3074, 3092, 18254567356092531287, 10492868150909462147),
            (4523, 3544, 16832015223813678003, 17652158431326983970),
        ],
    ),
    (
        "LRU",
        [
            (4240, 4420, 15269605637542774578, 10713503425606577555),
            (3093, 3109, 5156710279244428426, 17297938229777544242),
            (4523, 3544, 6366275044361040467, 17652158431326983970),
        ],
    ),
    (
        "CLOCK",
        [
            (4240, 4421, 1175826410734129936, 2406265613229404113),
            (3107, 3121, 243072040449097564, 15747566401966434108),
            (4523, 3544, 1424579898066971955, 17652158431326983970),
        ],
    ),
    (
        "CLOCK-2bit",
        [
            (4240, 4420, 3483327854277338337, 2406265613229404113),
            (3086, 3103, 3525732296580177493, 4643985576537907767),
            (4523, 3544, 1424579898066971955, 17652158431326983970),
        ],
    ),
    (
        "SIEVE",
        [
            (4243, 4413, 5488413815415229807, 3767839977265564880),
            (3069, 3090, 884886639742851152, 17517833271750638972),
            (4523, 3544, 1589644668051311923, 17652158431326983970),
        ],
    ),
    (
        "SLRU",
        [
            (4223, 4393, 6279030915621525492, 15271745040768707508),
            (3073, 3104, 6337540147653438012, 16607464566711206056),
            (4523, 3544, 5708955918440376755, 17652158431326983970),
        ],
    ),
    (
        "2Q",
        [
            (4239, 4416, 1694170720094681462, 13109984090466534874),
            (3086, 3106, 806188375073785456, 14000002817607851461),
            (4523, 3544, 13549107248977054003, 17652158431326983970),
        ],
    ),
    (
        "ARC",
        [
            (4253, 4418, 6390185909850798143, 6619771382382848364),
            (3076, 3091, 16810570674410995741, 2371363319291757763),
            (4523, 3544, 6195122940654257715, 17652158431326983970),
        ],
    ),
    (
        "LIRS",
        [
            (4244, 4420, 17678574783550500731, 17170223150542170889),
            (3097, 3093, 919216555118717103, 15927370482249209510),
            (4522, 3542, 13967864970802004256, 3272357721896429539),
        ],
    ),
    (
        "TinyLFU",
        [
            (4162, 4329, 3615916816493311532, 11203748527771337651),
            (3077, 3085, 8180072251859845196, 1101347515632529030),
            (4511, 3533, 1962298479408121865, 10856678466748322532),
        ],
    ),
    (
        "TinyLFU-0.1",
        [
            (4249, 4424, 3647733473486129212, 17678001481060535834),
            (3094, 3104, 2526193834624060800, 1848602268710831741),
            (4511, 3533, 1962298479408121865, 10856678466748322532),
        ],
    ),
    (
        "LRU-2",
        [
            (4206, 4375, 2557923798625771620, 931326183287014037),
            (3069, 3090, 884886639742851152, 17517833271750638972),
            (4523, 3544, 13001328252585233043, 17652158431326983970),
        ],
    ),
    (
        "LeCaR",
        [
            (4239, 4419, 14812852759990006163, 14112507879010564864),
            (3100, 3114, 334994208165573119, 7842601459603115077),
            (4523, 3544, 13823953416314119763, 17652158431326983970),
        ],
    ),
    (
        "CACHEUS",
        [
            (4252, 4423, 3405674731315242971, 14250769457041360435),
            (3098, 3116, 706773634684928702, 17461542543591795839),
            (4523, 3544, 8863694587134934579, 17652158431326983970),
        ],
    ),
    (
        "LHD",
        [
            (3898, 4024, 12931198005980678011, 17979306538261273429),
            (3098, 3110, 13243566048734537827, 7647269512018965409),
            (4522, 3542, 8767390825691065187, 13851871038897834709),
        ],
    ),
    (
        "B-LRU",
        [
            (4242, 4220, 1551964018454044580, 3473809999993247521),
            (3109, 2929, 3540218578323858693, 9348278485601208542),
            (4525, 3402, 9393581712214405300, 7126720821809997648),
        ],
    ),
    (
        "FIFO-Merge",
        [
            (4279, 4465, 12286918963253894835, 13033861854090966302),
            (3285, 3320, 7651683163743261779, 15984043964628770888),
            (4523, 3545, 14585407730463750504, 17652158431326983970),
        ],
    ),
    (
        "S3-FIFO",
        [
            (4263, 4440, 5840156421585933198, 14412085183691458678),
            (3115, 3134, 5184140691956233158, 15437663069962856314),
            (4523, 3544, 6645849834989435891, 17652158431326983970),
        ],
    ),
    (
        "S3-FIFO-D",
        [
            (4263, 4440, 5840156421585933198, 14412085183691458678),
            (3115, 3134, 5184140691956233158, 15437663069962856314),
            (4523, 3544, 6645849834989435891, 17652158431326983970),
        ],
    ),
    (
        "QDLP-LRU-LRU",
        [
            (4252, 4428, 2040650859924928093, 7258363911067786705),
            (3115, 3132, 14605319584274141072, 17971681764677182906),
            (4523, 3544, 8676995955247792211, 17652158431326983970),
        ],
    ),
    (
        "QDLP-LRU-FIFO",
        [
            (4262, 4438, 1527517151566009357, 9543666610910294533),
            (3113, 3140, 12701478623679404413, 18310230697608249808),
            (4523, 3544, 8676995955247792211, 17652158431326983970),
        ],
    ),
    (
        "QDLP-FIFO-LRU",
        [
            (4250, 4426, 11830091406692558410, 1586797696469268915),
            (3118, 3136, 12118420768946328357, 18273052860169622087),
            (4523, 3544, 6645849834989435891, 17652158431326983970),
        ],
    ),
    (
        "S3-FIFO-Sieve",
        [
            (4245, 4420, 14756136664191522878, 7156964905426531830),
            (3087, 3110, 8097651524090538533, 13243910177824749570),
            (4523, 3544, 6645849834989435891, 17652158431326983970),
        ],
    ),
    (
        "Belady",
        [
            (3253, 3325, 7831332707749294856, 14929841619292744228),
            (1655, 1536, 7876740940006289036, 8538507882549661262),
            (4501, 3529, 14457696709318509559, 602877892323244918),
        ],
    ),
    (
        "S3-FIFO(0.25)",
        [
            (4276, 4456, 10340101305781131835, 17250298521798364085),
            (3085, 3109, 13510016999569465333, 10687145964549807734),
            (4523, 3544, 13549107248977054003, 17652158431326983970),
        ],
    ),
    (
        "TinyLFU(0.2)",
        [
            (4209, 4385, 6105821638780739460, 15355961301990669380),
            (3093, 3102, 6531283612292943880, 13031086055728628676),
            (4511, 3533, 1962298479408121865, 10856678466748322532),
        ],
    ),
];

/// Every name's keyed door holds its invariants after every request and
/// decides as its pre-interned door, request by request, in each of
/// [`PROTOCOL_CELLS`]; both doors print the name's [`PROTOCOL`] row.
#[test]
fn keyed_invariants_hold_after_every_request() {
    let named: Vec<&str> = PROTOCOL.iter().map(|&(name, _)| name).collect();
    let parameterized = ["S3-FIFO(0.25)", "TinyLFU(0.2)"];
    assert!(
        ALL_ALGORITHMS.iter().chain(&parameterized).eq(&named),
        "{named:?}"
    );
    let requests = mixed_requests(5_000, 0x0B5E_7EED);
    for (name, row) in PROTOCOL {
        for ((capacity, ignore_size), want) in PROTOCOL_CELLS.into_iter().zip(row) {
            let keyed = drive_keyed(
                name,
                capacity,
                &requests,
                ignore_size,
                Validate::EachRequest,
            );
            let print = (
                keyed.stats.misses,
                keyed.stats.evictions,
                keyed.hash,
                keyed.outcomes,
            );
            let ctx = format!("{name} (capacity {capacity}, ignore_size={ignore_size})");
            assert_eq!(print, want, "{ctx}, keyed door");
            assert_eq!(
                dense_print(name, capacity, &requests, ignore_size),
                want,
                "{ctx}, dense door"
            );
        }
    }
}

/// Every name, parameterized ones included, has a pre-interned door —
/// Belady given the trace it will replay — so the equivalence above always
/// compares two doors.
#[test]
fn dense_variants_exist_for_core_policies() {
    let trace = WorkloadSpec::zipf("probe", 100, 50, 1.0, 1).generate();
    let domain = trace.dense().ids.len();
    let parameterized = ["S3-FIFO(0.25)", "TinyLFU(0.2)"];
    for name in ALL_ALGORITHMS.iter().chain(&parameterized) {
        let built =
            cache_policies::registry::build_dense_domain(name, 16, Some(trace.slots()), domain);
        assert!(built.is_ok(), "{name}");
    }
}

/// FNV-1a, continued over `bytes`.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a, continued over the ids of `evicted`.
fn hash_ids(hash: u64, evicted: &[cache_types::Eviction]) -> u64 {
    evicted
        .iter()
        .fold(hash, |h, e| fnv(h, &e.id.to_le_bytes()))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What the registry's keyed `name` did over a request stream.
struct KeyedRun {
    name: String,
    capacity: u64,
    stats: PolicyStats,
    freq_at_eviction: Histogram,
    /// FNV-1a of the evicted-id sequence.
    hash: u64,
    /// FNV-1a of the outcome sequence.
    outcomes: u64,
}

/// When [`drive_keyed`] calls `Policy::validate`.
#[derive(Clone, Copy, PartialEq)]
enum Validate {
    EachRequest,
    AtEnd,
}

/// Drives the registry's keyed `name` at `capacity` over `requests`, one
/// request at a time, and panics if `Policy::validate` fails when called.
fn drive_keyed(
    name: &str,
    capacity: u64,
    requests: &[Request],
    ignore_size: bool,
    validate: Validate,
) -> KeyedRun {
    let mut policy = cache_policies::registry::build(name, capacity, Some(requests))
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut evicted = Vec::new();
    let mut freq_at_eviction = Histogram::new();
    let (mut hash, mut outcomes) = (FNV_OFFSET, FNV_OFFSET);
    for (i, r) in requests.iter().enumerate() {
        let size = if ignore_size { 1 } else { r.size };
        evicted.clear();
        let outcome = policy.request(&Request { size, ..*r }, &mut evicted);
        outcomes = fnv(outcomes, &[outcome as u8]);
        let last = i + 1 == requests.len();
        if validate == Validate::EachRequest || last {
            if let Err(e) = policy.validate() {
                panic!("{name}, keyed door, after request {i}: {e}");
            }
        }
        hash = hash_ids(hash, &evicted);
        for e in &evicted {
            freq_at_eviction.record(u64::from(e.freq));
        }
    }
    KeyedRun {
        name: policy.name(),
        capacity: policy.capacity(),
        stats: policy.stats(),
        freq_at_eviction,
        hash,
        outcomes,
    }
}

/// `(misses, evictions, FNV-1a of the evicted-id sequence)` of the registry's
/// keyed `name` at `capacity` over `requests`.
fn fingerprint(
    name: &str,
    capacity: u64,
    requests: &[Request],
    ignore_size: bool,
) -> (u64, u64, u64) {
    let run = drive_keyed(name, capacity, requests, ignore_size, Validate::AtEnd);
    (run.stats.misses, run.stats.evictions, run.hash)
}

/// [`fingerprint`] through the other door: the registry's dense `name`
/// replayed over pre-interned slots.
fn dense_fingerprint(
    name: &str,
    capacity: u64,
    requests: &[Request],
    ignore_size: bool,
) -> (u64, u64, u64) {
    let (ids, slots) = cache_ds::DenseIds::intern(requests.iter().map(|r| r.id));
    let mut policy =
        cache_policies::registry::build_dense_domain(name, capacity, Some(&slots), ids.len())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut hash = FNV_OFFSET;
    policy.replay(&slots, requests, ignore_size, &mut |_, e| {
        hash = hash_ids(hash, &[e.named(ids.orig(e.id))]);
    });
    let stats = policy.stats();
    (stats.misses, stats.evictions, hash)
}

/// The registry's dense `name` at `capacity`, driven over pre-interned
/// slots one request at a time so that each outcome is seen: the dense
/// door's [`Print`].
fn dense_print(name: &str, capacity: u64, requests: &[Request], ignore_size: bool) -> Print {
    let (ids, slots) = cache_ds::DenseIds::intern(requests.iter().map(|r| r.id));
    let mut policy =
        cache_policies::registry::build_dense_domain(name, capacity, Some(&slots), ids.len())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    let (mut hash, mut outcomes) = (FNV_OFFSET, FNV_OFFSET);
    let mut evicted = Vec::new();
    for (&slot, r) in slots.iter().zip(requests) {
        let size = if ignore_size { 1 } else { r.size };
        evicted.clear();
        let outcome = policy.request_dense(slot, &Request { size, ..*r }, &mut evicted);
        outcomes = fnv(outcomes, &[outcome as u8]);
        let named: Vec<_> = evicted.iter().map(|e| e.named(ids.orig(e.id))).collect();
        hash = hash_ids(hash, &named);
    }
    let stats = policy.stats();
    (stats.misses, stats.evictions, hash, outcomes)
}

/// The §6.3 queue-type variants have no second implementation to diff
/// against once they are instantiations of `DenseS3Fifo`, so their decisions
/// are pinned: captured at d05e39d, the last commit where they were the
/// hand-written `DList` + `IdMap` policy, on the three workloads above.
#[test]
fn queue_type_variants_are_unchanged() {
    let golden: [Golden; 4] = [
        (
            "QDLP-LRU-LRU",
            [
                (9787, 9521, 17897870575619996390),
                (18066, 17495, 16344758004422326996),
                (6761, 6583, 11241911159955605779),
            ],
        ),
        (
            "QDLP-LRU-FIFO",
            [
                (9499, 9233, 8702734791466165267),
                (17654, 17083, 969657484197843872),
                (6559, 6377, 4144432515148363135),
            ],
        ),
        (
            "QDLP-FIFO-LRU",
            [
                (9804, 9538, 10287838984144853737),
                (18097, 17526, 1841891766930250978),
                (6775, 6597, 2650689317984420485),
            ],
        ),
        (
            "S3-FIFO-Sieve",
            [
                (9458, 9192, 3728090928277959579),
                (17607, 17036, 14686925153265095578),
                (6497, 6311, 7786721512292661646),
            ],
        ),
    ];
    assert_fingerprints(&golden);
}

/// Every baseline was a hand-written keyed policy until it moved onto the
/// slab, so its decisions were pinned first, on the three workloads above:
/// ARC, LIRS, W-TinyLFU (both windows), LRU-2 and B-LRU at 3d0ea33,
/// CACHEUS, LeCaR, LHD, FIFO-Merge and S3-FIFO-D at 42ef7d2, Belady at
/// 127b315 — each the last commit with the keyed policies. (B-LRU's and
/// S3-FIFO-D's misses and evictions are the ones pinned at 3ab2410.)
#[test]
fn slab_ports_are_unchanged() {
    let golden: [Golden; 12] = [
        (
            "ARC",
            [
                (9651, 9385, 15247545602836218234),
                (17882, 17311, 875223858556696013),
                (6722, 6542, 2444986771375088883),
            ],
        ),
        (
            "LIRS",
            [
                (9862, 9596, 11353592703256009273),
                (17998, 17427, 5321503824969114698),
                (6780, 6572, 15206595031019735001),
            ],
        ),
        (
            "TinyLFU",
            [
                (9529, 9263, 10163957694752960275),
                (17575, 17004, 1030312401245755459),
                (6522, 6342, 17215375221513529714),
            ],
        ),
        (
            "TinyLFU-0.1",
            [
                (9646, 9380, 8374922579892024418),
                (17725, 17154, 10841661264568527366),
                (6606, 6431, 2836118440775698115),
            ],
        ),
        (
            "LRU-2",
            [
                (9695, 9429, 12314589501571894630),
                (17555, 16984, 10224285392514549576),
                (6579, 6394, 10889712987628035822),
            ],
        ),
        (
            "B-LRU",
            [
                (10917, 6603, 10230045627545361359),
                (18113, 4088, 4472994687148049171),
                (7643, 5696, 11027154481098453909),
            ],
        ),
        (
            "CACHEUS",
            [
                (10404, 10138, 271571488307491297),
                (17790, 17219, 7118173789969077135),
                (7156, 6979, 2128259757492259509),
            ],
        ),
        (
            "LeCaR",
            [
                (11527, 11261, 2858518215729041151),
                (19206, 18635, 18302089238184554632),
                (7799, 7627, 6266566113737080485),
            ],
        ),
        (
            "LHD",
            [
                (11749, 11483, 14420328526559637681),
                (19267, 18696, 4302384091690292794),
                (9047, 8869, 4610950334511951064),
            ],
        ),
        (
            "FIFO-Merge",
            [
                (12815, 12558, 780049084319939386),
                (19834, 19323, 9227381444304003559),
                (8735, 8575, 3049618979844777787),
            ],
        ),
        (
            "S3-FIFO-D",
            [
                (9520, 9254, 10981971727848231288),
                (17689, 17118, 16266197838143614508),
                (6583, 6400, 12538417372919075423),
            ],
        ),
        (
            "Belady",
            [
                (6888, 6622, 6216292443589348239),
                (13238, 12667, 14194294972123307314),
                (4742, 4556, 10311971568268628387),
            ],
        ),
    ];
    assert_fingerprints(&golden);
}

/// Each name's [`fingerprint`] and [`dense_fingerprint`] on the three
/// workloads equal its golden row.
fn assert_fingerprints(golden: &[Golden]) {
    let workloads = workloads();
    for &(name, want) in golden {
        for (door, print) in [
            ("keyed", fingerprint as fn(&str, u64, &[Request], bool) -> _),
            ("dense", dense_fingerprint),
        ] {
            let got: Vec<_> = workloads
                .iter()
                .map(|(t, cfg)| print(name, cfg.capacity_for(t), &t.to_requests(), cfg.ignore_size))
                .collect();
            assert_eq!(got, want, "{name}, {door} door");
        }
    }
}
