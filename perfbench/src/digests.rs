//! Results recorded from the program at every seed the benchmark uses.
//! The simulator is deterministic, so each run must reproduce its entry
//! exactly; regenerate an entry with `--record` only when a change is
//! meant to alter search results.

use crate::campaign::Digest;

/// Distinct input sets per workload: the benchmark's `--seed n` runs the
/// inputs of index `n % SEEDS`.
pub const SEEDS: u64 = 10;

/// Tenant specs of the daemon workload (framework seeds 1 to 8), the same
/// for every input set.
pub const TENANT_SPECS: u64 = 8;

/// One campaign workload's recorded result.
pub struct Campaign {
    /// Workload name.
    pub workload: &'static str,
    /// Paper scale (else quick).
    pub paper: bool,
    /// Input index (`seed % SEEDS`).
    pub index: u64,
    /// The campaign's digest.
    pub digest: Digest,
    /// `RecordedRun::len` summed over the campaign's evaluations.
    pub trace_ops: u64,
}

/// One daemon tenant spec's recorded result.
pub struct Tenant {
    /// The spec's framework seed.
    pub seed: u64,
    /// The campaign's digest.
    pub digest: Digest,
    /// `Storage::sync` calls on the campaign's files.
    pub syncs: u64,
    /// Sequenced events streamed for the campaign.
    pub events: u64,
}

const fn d(
    best: u64,
    fitness: u64,
    generations: u32,
    evaluations: u64,
    compile_hits: u64,
) -> Digest {
    Digest {
        best,
        fitness,
        generations,
        evaluations,
        compile_hits,
    }
}

/// Recorded campaign results.
#[rustfmt::skip]
pub const CAMPAIGNS: &[Campaign] = &[
    Campaign { workload: "word64", paper: true, index: 0, digest: d(0x34d010c2385870d, 0x40ca24d99999999a, 50, 1161, 0), trace_ops: 304349184 },
    Campaign { workload: "word64", paper: true, index: 1, digest: d(0xd8d3898a23b6556d, 0x40c9adcccccccccd, 50, 1217, 0), trace_ops: 319029248 },
    Campaign { workload: "word64", paper: true, index: 2, digest: d(0x449b3ec967b2fecd, 0x40ca7ee666666666, 50, 1174, 0), trace_ops: 307757056 },
    Campaign { workload: "word64", paper: true, index: 3, digest: d(0x449b3ec967b2fecd, 0x40ca7ee666666666, 50, 1212, 0), trace_ops: 317718528 },
    Campaign { workload: "word64", paper: true, index: 4, digest: d(0x633e4a67f99502d9, 0x40ca118000000000, 50, 1084, 0), trace_ops: 284164096 },
    Campaign { workload: "word64", paper: true, index: 5, digest: d(0x10aff0dd8baffa87, 0x40c9f0cccccccccd, 50, 1263, 0), trace_ops: 331087872 },
    Campaign { workload: "word64", paper: true, index: 6, digest: d(0xb24722024ae9d9ad, 0x40ca1b4ccccccccd, 50, 1161, 0), trace_ops: 304349184 },
    Campaign { workload: "word64", paper: true, index: 7, digest: d(0x449b3ec967b2fecd, 0x40ca7ee666666666, 50, 1167, 0), trace_ops: 305922048 },
    Campaign { workload: "word64", paper: true, index: 8, digest: d(0x449b3ec967b2fecd, 0x40ca7ee666666666, 50, 1191, 0), trace_ops: 312213504 },
    Campaign { workload: "word64", paper: true, index: 9, digest: d(0x70540968bb8d978d, 0x40ca43e666666666, 50, 1277, 0), trace_ops: 334757888 },
    Campaign { workload: "word64", paper: false, index: 0, digest: d(0xfaa6ad976907232c, 0x4086700000000000, 12, 82, 0), trace_ops: 5373952 },
    Campaign { workload: "word64", paper: false, index: 1, digest: d(0x6bb89d554037ef2b, 0x4089755555555555, 12, 91, 0), trace_ops: 5963776 },
    Campaign { workload: "word64", paper: false, index: 2, digest: d(0x8ec7aa207700802d, 0x4086200000000000, 12, 85, 0), trace_ops: 5570560 },
    Campaign { workload: "word64", paper: false, index: 3, digest: d(0xb963091b022b6bee, 0x4088355555555555, 12, 97, 0), trace_ops: 6356992 },
    Campaign { workload: "word64", paper: false, index: 4, digest: d(0xafa4faef2f13d98, 0x408542aaaaaaaaab, 12, 92, 0), trace_ops: 6029312 },
    Campaign { workload: "word64", paper: false, index: 5, digest: d(0xae5509a7f173c33e, 0x4087e55555555555, 12, 89, 0), trace_ops: 5832704 },
    Campaign { workload: "word64", paper: false, index: 6, digest: d(0x1b42779dc6a46fef, 0x4086400000000000, 12, 75, 0), trace_ops: 4915200 },
    Campaign { workload: "word64", paper: false, index: 7, digest: d(0xa33d0f684ef82c9d, 0x4086880000000000, 12, 83, 0), trace_ops: 5439488 },
    Campaign { workload: "word64", paper: false, index: 8, digest: d(0x2cd50b3784b512a3, 0x4088400000000000, 12, 104, 0), trace_ops: 6815744 },
    Campaign { workload: "word64", paper: false, index: 9, digest: d(0x5921ee7ab3465310, 0x40878aaaaaaaaaab, 12, 95, 0), trace_ops: 6225920 },
    Campaign { workload: "stride", paper: true, index: 0, digest: d(0x6daed6ebb3d5a92, 0x40718b3333333333, 3, 141, 0), trace_ops: 32281104 },
    Campaign { workload: "stride", paper: true, index: 1, digest: d(0x86e7d42ebf6ccd15, 0x407189999999999a, 3, 146, 0), trace_ops: 33425824 },
    Campaign { workload: "stride", paper: true, index: 2, digest: d(0xce5ce5f4adea3aa6, 0x40718ccccccccccd, 3, 139, 0), trace_ops: 31823216 },
    Campaign { workload: "stride", paper: true, index: 3, digest: d(0x8fef710b57606edf, 0x40718b3333333333, 3, 146, 0), trace_ops: 33425824 },
    Campaign { workload: "stride", paper: true, index: 4, digest: d(0x432cb607e256f866, 0x407191999999999a, 3, 148, 0), trace_ops: 33883712 },
    Campaign { workload: "stride", paper: true, index: 5, digest: d(0xe51261561aadd8f5, 0x40718b3333333333, 3, 144, 0), trace_ops: 32967936 },
    Campaign { workload: "stride", paper: true, index: 6, digest: d(0x531ae077eba4b40f, 0x407191999999999a, 3, 143, 0), trace_ops: 32738992 },
    Campaign { workload: "stride", paper: true, index: 7, digest: d(0x552e41d8bdbb65e3, 0x4071900000000000, 3, 141, 0), trace_ops: 32281104 },
    Campaign { workload: "stride", paper: true, index: 8, digest: d(0x540fcccee12d163, 0x40718ccccccccccd, 3, 145, 0), trace_ops: 33196880 },
    Campaign { workload: "stride", paper: true, index: 9, digest: d(0xa6acd2686960901b, 0x40718ccccccccccd, 3, 142, 0), trace_ops: 32510048 },
    Campaign { workload: "stride", paper: false, index: 0, digest: d(0x25fdfd2e21efd0a0, 0x4038000000000000, 3, 40, 0), trace_ops: 1466240 },
    Campaign { workload: "stride", paper: false, index: 1, digest: d(0x2944b308626d0a1c, 0x4038000000000000, 3, 40, 0), trace_ops: 1466240 },
    Campaign { workload: "stride", paper: false, index: 2, digest: d(0x99d74138aa0bf8af, 0x4038000000000000, 3, 37, 0), trace_ops: 1356272 },
    Campaign { workload: "stride", paper: false, index: 3, digest: d(0x8881afda5a9405ec, 0x4038000000000000, 3, 34, 0), trace_ops: 1246304 },
    Campaign { workload: "stride", paper: false, index: 4, digest: d(0xd6b88b2dbcc031f8, 0x4038000000000000, 3, 36, 0), trace_ops: 1319616 },
    Campaign { workload: "stride", paper: false, index: 5, digest: d(0x275b1f8020e37514, 0x4038000000000000, 3, 33, 0), trace_ops: 1209648 },
    Campaign { workload: "stride", paper: false, index: 6, digest: d(0xbbdb28686c8c980b, 0x4038000000000000, 3, 42, 0), trace_ops: 1539552 },
    Campaign { workload: "stride", paper: false, index: 7, digest: d(0x65aa29b6ff50ad80, 0x4038000000000000, 3, 37, 0), trace_ops: 1356272 },
    Campaign { workload: "stride", paper: false, index: 8, digest: d(0xa86febc007c46766, 0x4038000000000000, 3, 33, 0), trace_ops: 1209648 },
    Campaign { workload: "stride", paper: false, index: 9, digest: d(0x5da0107d50f2deb7, 0x4038000000000000, 3, 40, 0), trace_ops: 1466240 },
    Campaign { workload: "chunks", paper: true, index: 0, digest: d(0x583158fb2b8104a0, 0x40718e6666666666, 3, 148, 0), trace_ops: 41185588 },
    Campaign { workload: "chunks", paper: true, index: 1, digest: d(0x3f37bac196835759, 0x40718ccccccccccd, 3, 147, 0), trace_ops: 40907307 },
    Campaign { workload: "chunks", paper: true, index: 2, digest: d(0x18b1a93c19e8d313, 0x40718b3333333333, 3, 144, 0), trace_ops: 40072464 },
    Campaign { workload: "chunks", paper: true, index: 3, digest: d(0x3095261a4be27601, 0x407194cccccccccd, 3, 143, 0), trace_ops: 39794183 },
    Campaign { workload: "chunks", paper: true, index: 4, digest: d(0x4ebb4b53f08eab52, 0x40718ccccccccccd, 3, 148, 0), trace_ops: 41185588 },
    Campaign { workload: "chunks", paper: true, index: 5, digest: d(0xb3f130b248386d93, 0x40718e6666666666, 3, 144, 0), trace_ops: 40072464 },
    Campaign { workload: "chunks", paper: true, index: 6, digest: d(0xd42b56821f250f97, 0x407194cccccccccd, 3, 147, 0), trace_ops: 40907307 },
    Campaign { workload: "chunks", paper: true, index: 7, digest: d(0xdf4e65e34c8e6079, 0x40718b3333333333, 3, 144, 0), trace_ops: 40072464 },
    Campaign { workload: "chunks", paper: true, index: 8, digest: d(0x50212c198edecbb4, 0x4071900000000000, 3, 145, 0), trace_ops: 40350745 },
    Campaign { workload: "chunks", paper: true, index: 9, digest: d(0xe43eb555aaca6b07, 0x4071900000000000, 3, 141, 0), trace_ops: 39237621 },
    Campaign { workload: "chunks", paper: false, index: 0, digest: d(0x26397f6c440fa573, 0x4038000000000000, 3, 42, 0), trace_ops: 2403198 },
    Campaign { workload: "chunks", paper: false, index: 1, digest: d(0xf7998873a551549, 0x4038000000000000, 3, 39, 0), trace_ops: 2231541 },
    Campaign { workload: "chunks", paper: false, index: 2, digest: d(0x293aa9b4d445e474, 0x4038000000000000, 3, 40, 0), trace_ops: 2288760 },
    Campaign { workload: "chunks", paper: false, index: 3, digest: d(0xa3f2574bc9f4ca2, 0x4038000000000000, 3, 40, 0), trace_ops: 2288760 },
    Campaign { workload: "chunks", paper: false, index: 4, digest: d(0xa8dcb05fdcbbbc81, 0x4038000000000000, 3, 37, 0), trace_ops: 2117103 },
    Campaign { workload: "chunks", paper: false, index: 5, digest: d(0x94a9f5db4ea1bbfe, 0x4038000000000000, 3, 39, 0), trace_ops: 2231541 },
    Campaign { workload: "chunks", paper: false, index: 6, digest: d(0xff1d22320c547813, 0x4038000000000000, 3, 36, 0), trace_ops: 2059884 },
    Campaign { workload: "chunks", paper: false, index: 7, digest: d(0x9244003051cb5949, 0x4038000000000000, 3, 40, 0), trace_ops: 2288760 },
    Campaign { workload: "chunks", paper: false, index: 8, digest: d(0xb152236651ae2fc6, 0x4038000000000000, 3, 37, 0), trace_ops: 2117103 },
    Campaign { workload: "chunks", paper: false, index: 9, digest: d(0x28fd6d893269ac5b, 0x4038000000000000, 3, 38, 0), trace_ops: 2174322 },
];

/// Recorded daemon tenant results.
#[rustfmt::skip]
pub const TENANTS: &[Tenant] = &[
    Tenant { seed: 1, digest: d(0xfaa6ad976907232c, 0x4086700000000000, 12, 82, 0), syncs: 99, events: 14 },
    Tenant { seed: 2, digest: d(0x6bb89d554037ef2b, 0x4089755555555555, 12, 91, 0), syncs: 108, events: 14 },
    Tenant { seed: 3, digest: d(0x8ec7aa207700802d, 0x4086200000000000, 12, 85, 0), syncs: 102, events: 14 },
    Tenant { seed: 4, digest: d(0xb963091b022b6bee, 0x4088355555555555, 12, 97, 0), syncs: 114, events: 14 },
    Tenant { seed: 5, digest: d(0xafa4faef2f13d98, 0x408542aaaaaaaaab, 12, 92, 0), syncs: 109, events: 14 },
    Tenant { seed: 6, digest: d(0xae5509a7f173c33e, 0x4087e55555555555, 12, 89, 0), syncs: 106, events: 14 },
    Tenant { seed: 7, digest: d(0x1b42779dc6a46fef, 0x4086400000000000, 12, 75, 0), syncs: 92, events: 14 },
    Tenant { seed: 8, digest: d(0xa33d0f684ef82c9d, 0x4086880000000000, 12, 83, 0), syncs: 100, events: 14 },
];

/// The recorded campaign result for a workload, scale and input index.
pub fn campaign(workload: &str, paper: bool, index: u64) -> Option<&'static Campaign> {
    CAMPAIGNS
        .iter()
        .find(|c| c.workload == workload && c.paper == paper && c.index == index)
}

/// The recorded result of the tenant spec with this framework seed.
pub fn tenant(seed: u64) -> Option<&'static Tenant> {
    TENANTS.iter().find(|t| t.seed == seed)
}
