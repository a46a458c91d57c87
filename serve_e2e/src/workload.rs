//! The three workloads and their seeded inputs.
//!
//! Every request the server receives is rendered from the inputs built
//! here, and the inputs depend on the seed alone. Days are real 6-s-period
//! lab-machine days from the trace generator (14,400 samples each); a
//! host's day is a pool day, optionally rotated by up to two hours, so the
//! fleet is built from a small generated pool without losing realism.

use std::collections::HashSet;

use fgcs::core::model::AvailabilityModel;
use fgcs::core::window::DayType;
use fgcs::runtime::rng::{Rng, Xoshiro256};
use fgcs::runtime::shard::shard_of;
use fgcs::serve::encode_states;
use fgcs::trace::{TraceConfig, TraceGenerator};

/// Predicts per `batch` request in `schedule_cold`.
pub const BATCH_OPS: usize = 64;

/// The query grid of `predict_hot` and `ingest_durable`: (start, length)
/// in quarter hours. Four coordinates — exactly the registry's per-host
/// incremental-estimator budget, so these workloads never fall back to a
/// full scan.
pub const GRID: [Window; 4] = [
    Window {
        start_q: 32,
        len_q: 4,
    },
    Window {
        start_q: 36,
        len_q: 8,
    },
    Window {
        start_q: 56,
        len_q: 4,
    },
    Window {
        start_q: 80,
        len_q: 8,
    },
];

/// Generated lab machines whose weekdays form the day pool. Enough that
/// every seed's pool spans the profile's range of daily patterns, so runs
/// on different seeds do comparable work.
const POOL_MACHINES: u64 = 32;

/// Distinct histories the `predict_hot` fleet shares (about 31 hosts each).
const HOT_PROFILES: usize = 64;

/// `schedule_cold` warm-up batches: 5,120 predicts, more than the 4,096
/// kernels one shard's `QhCache` holds.
const COLD_WARM_BATCHES: usize = 80;

/// Weekday day indices (day 0 is a Monday) of an 8-day weekday history.
const WEEKDAYS: [usize; 8] = [0, 1, 2, 3, 4, 7, 8, 9];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    PredictHot,
    IngestDurable,
    ScheduleCold,
}

/// Shape of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    pub shards: usize,
    pub hosts: usize,
    /// Days each host holds when set-up ends.
    pub preload_days: usize,
    /// Days each host pushes during the timed phase (`ingest_durable`).
    pub timed_days: usize,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        kind: Kind::PredictHot,
        name: "predict_hot",
        shards: 8,
        hosts: 2000,
        preload_days: 8,
        timed_days: 0,
    },
    // One shard at the default --snapshot-every 4096. Set-up leaves 3,840
    // WAL records, so the timed phase's 7,168 ingests cross the snapshot
    // cadence exactly twice, at its 256th and 4,352nd ingest (61 % of the
    // way), leaving the rest of the phase to drain the second stall. Each
    // snapshot writes the whole shard, so a second shard would double the
    // state without shortening a stall.
    Spec {
        kind: Kind::IngestDurable,
        name: "ingest_durable",
        shards: 1,
        hosts: 256,
        preload_days: 15,
        timed_days: 28,
    },
    // One shard: its QhCache (4,096 kernels of up to 4 h) is the whole
    // fleet's, so the working set of ~380 coordinates per host overflows
    // it and evicts, while the server stays near 1.3 GB.
    Spec {
        kind: Kind::ScheduleCold,
        name: "schedule_cold",
        shards: 1,
        hosts: 2000,
        preload_days: 8,
        timed_days: 0,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// A job window on the quarter-hour grid.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Window {
    pub start_q: u8,
    pub len_q: u8,
}

/// One day of a host: a pool day rotated by `shift` samples.
#[derive(Clone, Copy, Debug)]
pub struct Day {
    pub index: usize,
    pub pool: u32,
    pub shift: u32,
}

/// One request, rendered to a wire line on demand.
#[derive(Clone, Debug)]
pub enum Req {
    Ingest { host: u32, day: u32 },
    Predict { host: u32, w: Window, s2: bool },
    Sweep { host: u32, w: Window },
    Batch(Vec<(u32, Window)>),
    Host { host: u32 },
}

impl Req {
    /// Reply lines the request produces.
    pub fn reply_lines(&self) -> usize {
        match self {
            Req::Batch(items) => items.len(),
            _ => 1,
        }
    }

    pub fn op(&self) -> Op {
        match self {
            Req::Ingest { .. } => Op::Ingest,
            Req::Predict { .. } => Op::Predict,
            Req::Sweep { .. } => Op::Sweep,
            Req::Batch(_) => Op::Batch,
            Req::Host { .. } => Op::Host,
        }
    }

    /// Wire ops the request carries (each batch element counts as one).
    pub fn wire_ops(&self) -> usize {
        self.reply_lines()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    Ingest,
    Predict,
    Sweep,
    Batch,
    Host,
}

impl Op {
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Everything a run sends, derived from the seed.
pub struct Inputs {
    pub spec: Spec,
    pub seed: u64,
    /// Digit-encoded pool days (`'1'`–`'5'` per sample).
    pub pool: Vec<String>,
    pub host_ids: Vec<u64>,
    /// Per host, every day it will ever hold, in ingest order.
    pub days: Vec<Vec<Day>>,
}

impl Inputs {
    pub fn new(spec: Spec, seed: u64) -> Inputs {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5e2e_0001);
        let pool = day_pool(seed, POOL_MACHINES);
        let host_ids = host_ids(&mut rng, spec);
        let total_days = spec.preload_days + spec.timed_days;
        let days = match spec.kind {
            Kind::PredictHot => {
                // Shared histories: hosts with one profile hold identical
                // days, so their kernels dedup and their solves memoize.
                let profiles: Vec<Vec<Day>> = (0..HOT_PROFILES)
                    .map(|_| {
                        WEEKDAYS
                            .iter()
                            .map(|&index| Day {
                                index,
                                pool: rng.bounded_u64(pool.len() as u64) as u32,
                                shift: 0,
                            })
                            .collect()
                    })
                    .collect();
                (0..spec.hosts)
                    .map(|_| profiles[rng.bounded_u64(HOT_PROFILES as u64) as usize].clone())
                    .collect()
            }
            Kind::ScheduleCold => (0..spec.hosts)
                .map(|_| {
                    WEEKDAYS
                        .iter()
                        .map(|&index| random_day(&mut rng, &pool, index))
                        .collect()
                })
                .collect(),
            Kind::IngestDurable => (0..spec.hosts)
                .map(|_| {
                    (0..total_days)
                        .map(|index| random_day(&mut rng, &pool, index))
                        .collect()
                })
                .collect(),
        };
        Inputs {
            spec,
            seed,
            pool,
            host_ids,
            days,
        }
    }

    /// Appends the wire line of `req` (no newline) to `out`.
    pub fn render(&self, req: &Req, out: &mut String) {
        use std::fmt::Write;
        match req {
            Req::Ingest { host, day } => {
                let _ = write!(
                    out,
                    "{{\"op\":\"ingest\",\"host\":{},\"day_index\":{},\"states\":\"",
                    self.host_ids[*host as usize], self.days[*host as usize][*day as usize].index
                );
                self.push_digits(*host, *day, out);
                out.push_str("\"}");
            }
            Req::Predict { host, w, s2 } => {
                self.push_query(out, "predict", *host, *w);
                if *s2 {
                    out.push_str(",\"init\":\"S2\"");
                }
                out.push('}');
            }
            Req::Sweep { host, w } => {
                self.push_query(out, "sweep", *host, *w);
                out.push_str(",\"points\":12}");
            }
            Req::Batch(items) => {
                out.push_str("{\"op\":\"batch\",\"ops\":[");
                for (i, (host, w)) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.push_query(out, "predict", *host, *w);
                    out.push('}');
                }
                out.push_str("]}");
            }
            Req::Host { host } => {
                let _ = write!(
                    out,
                    "{{\"op\":\"host\",\"host\":{}}}",
                    self.host_ids[*host as usize]
                );
            }
        }
    }

    /// Appends the digit string of `host`'s `day`.
    pub fn push_digits(&self, host: u32, day: u32, out: &mut String) {
        let d = self.days[host as usize][day as usize];
        let digits = &self.pool[d.pool as usize];
        let s = d.shift as usize % digits.len();
        out.push_str(&digits[s..]);
        out.push_str(&digits[..s]);
    }

    fn push_query(&self, out: &mut String, op: &str, host: u32, w: Window) {
        use std::fmt::Write;
        let _ = write!(
            out,
            "{{\"op\":\"{op}\",\"host\":{},\"start\":{:.2},\"hours\":{:.2}",
            self.host_ids[host as usize],
            f64::from(w.start_q) / 4.0,
            f64::from(w.len_q) / 4.0
        );
    }

    /// Samples (= state bytes) carried by one ingest.
    pub fn day_bytes(&self) -> u64 {
        self.pool[0].len() as u64
    }

    /// Set-up ingests, split over two connections by host parity; each
    /// host's days stay in order on its connection.
    pub fn preload(&self) -> [Vec<Req>; 2] {
        let mut out = [Vec::new(), Vec::new()];
        for day in 0..self.spec.preload_days {
            for host in 0..self.spec.hosts {
                out[host % 2].push(Req::Ingest {
                    host: host as u32,
                    day: day as u32,
                });
            }
        }
        out
    }

    /// The warm pass. `predict_hot`: every host × grid window × both
    /// initial states, so the timed phase finds every kernel and solve
    /// cached. `schedule_cold`: enough batches (from a stream of their own)
    /// to fill the shard's `QhCache`, so the timed phase runs at the steady
    /// state of a full, evicting cache.
    pub fn warm(&self) -> [Vec<Req>; 2] {
        let mut out = [Vec::new(), Vec::new()];
        match self.spec.kind {
            Kind::IngestDurable => return out,
            Kind::ScheduleCold => {
                let mut rng = Xoshiro256::seed_from_u64(self.seed ^ 0x5e2e_0400);
                for i in 0..COLD_WARM_BATCHES {
                    out[i % 2].push(self.next_closed(&mut rng));
                }
                return out;
            }
            Kind::PredictHot => {}
        }
        for host in 0..self.spec.hosts {
            for w in GRID {
                for s2 in [false, true] {
                    out[host % 2].push(Req::Predict {
                        host: host as u32,
                        w,
                        s2,
                    });
                }
            }
        }
        out
    }

    /// Request generator of one closed-loop connection.
    pub fn closed_loop_rng(&self, conn: usize) -> Xoshiro256 {
        Xoshiro256::seed_from_u64(self.seed ^ (0x5e2e_0100 + conn as u64))
    }

    /// The next closed-loop request: about 90 % `predict` and 10 % `sweep`
    /// over the grid (`predict_hot`), or a 64-predict `batch` at random
    /// hosts, 15-minute starts and 1–4 h lengths (`schedule_cold`).
    pub fn next_closed(&self, rng: &mut Xoshiro256) -> Req {
        let hosts = self.spec.hosts as u64;
        match self.spec.kind {
            Kind::PredictHot => {
                let r = rng.next_u64();
                let host = (r % hosts) as u32;
                let w = GRID[((r >> 20) % 4) as usize];
                if (r >> 24).is_multiple_of(10) {
                    Req::Sweep { host, w }
                } else {
                    Req::Predict {
                        host,
                        w,
                        s2: (r >> 32) & 1 == 1,
                    }
                }
            }
            _ => Req::Batch(
                (0..BATCH_OPS)
                    .map(|_| {
                        let r = rng.next_u64();
                        let w = Window {
                            start_q: ((r >> 20) % 96) as u8,
                            len_q: 4 * (1 + ((r >> 28) % 4) as u8),
                        };
                        ((r % hosts) as u32, w)
                    })
                    .collect(),
            ),
        }
    }

    /// `ingest_durable`'s open-loop schedule: round-robin over the hosts,
    /// each host's next-day ingest followed by a predict on that host.
    pub fn durable_schedule(&self) -> Vec<Req> {
        let mut rng = Xoshiro256::seed_from_u64(self.seed ^ 0x5e2e_0200);
        let mut out = Vec::new();
        for d in 0..self.spec.timed_days {
            for host in 0..self.spec.hosts as u32 {
                let day = (self.spec.preload_days + d) as u32;
                out.push(Req::Ingest { host, day });
                out.push(Req::Predict {
                    host,
                    w: GRID[rng.bounded_u64(4) as usize],
                    s2: false,
                });
            }
        }
        out
    }

    /// Requests checked before a durable shutdown and after the restart:
    /// one predict per host.
    pub fn final_predicts(&self) -> Vec<Req> {
        (0..self.spec.hosts as u32)
            .map(|host| Req::Predict {
                host,
                w: GRID[1],
                s2: false,
            })
            .collect()
    }
}

fn random_day(rng: &mut Xoshiro256, pool: &[String], index: usize) -> Day {
    Day {
        index,
        pool: rng.bounded_u64(pool.len() as u64) as u32,
        // Up to two hours of rotation: distinct windows per host.
        shift: rng.bounded_u64(1200) as u32,
    }
}

/// Weekday days of `machines` generated lab machines, digit-encoded.
fn day_pool(seed: u64, machines: u64) -> Vec<String> {
    let model = AvailabilityModel::default();
    let mut pool = Vec::new();
    for m in 0..machines {
        let cfg = TraceConfig::lab_machine(seed).with_machine_id(m);
        let history = TraceGenerator::new(cfg)
            .generate_days(7)
            .to_history(&model)
            .expect("generated lab days classify under the default model");
        for day in history.days() {
            if DayType::of_day(day.day_index) == DayType::Weekday {
                pool.push(encode_states(day.log.states()));
            }
        }
    }
    pool
}

/// Distinct host ids. `ingest_durable` takes the same number on every
/// shard so each shard's WAL sees the same record count.
fn host_ids(rng: &mut Xoshiro256, spec: Spec) -> Vec<u64> {
    let quota = spec.hosts.div_ceil(spec.shards);
    let mut per_shard = vec![0usize; spec.shards];
    let mut seen = HashSet::new();
    let mut ids = Vec::with_capacity(spec.hosts);
    while ids.len() < spec.hosts {
        let id = 1 + rng.bounded_u64(1 << 40);
        let shard = shard_of(id, spec.shards);
        let balanced = spec.kind != Kind::IngestDurable || per_shard[shard] < quota;
        if balanced && seen.insert(id) {
            per_shard[shard] += 1;
            ids.push(id);
        }
    }
    ids
}
