//! Seeded input generation: the three workloads and their op streams.
//!
//! The benchmark owns its generator (SplitMix64 plus Gray et al.'s
//! rejection-free zipfian, the method YCSB uses), so the store under
//! test receives only generated keys and a change to the repository's
//! own traffic helpers cannot change the inputs.
//!
//! Every stream is drawn fresh from `(seed, thread)`; nothing is cycled,
//! so no run replays writes that an earlier window already applied.

/// Keys a `scan` asks for.
pub const SCAN_LIMIT: usize = 32;
/// Writes in one `write_batch`.
pub const BATCH_LEN: usize = 16;

/// SplitMix64: seedable, and cheap next to the operations it drives.
#[derive(Debug, Clone)]
struct Rng(u64);

fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix64(seed ^ mix64(stream.wrapping_add(0x51ed_2701))))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        mix64(self.0)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Zipfian ranks over `[0, n)` (rank 0 hottest), Gray et al. SIGMOD '94.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    zetan: f64,
    alpha: f64,
    eta: f64,
    half_pow_theta: f64,
}

impl Zipf {
    fn new(n: u64, theta: f64) -> Zipf {
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipf {
            n,
            zetan,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        ((self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64).min(self.n - 1)
    }
}

/// Key distribution over `[0, keys)`.
#[derive(Debug, Clone)]
pub enum Dist {
    Uniform(u64),
    /// Scrambled zipfian: hot ranks are spread over the key space by a
    /// bijective mix, as in YCSB.
    Zipf(Zipf),
}

impl Dist {
    fn key(&self, rng: &mut Rng) -> u64 {
        match self {
            Dist::Uniform(n) => rng.below(*n),
            Dist::Zipf(z) => mix64(z.rank(rng)) % z.n,
        }
    }
}

/// Percent of ops of each kind; sums to 100.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub get: u64,
    pub scan: u64,
    pub batch: u64,
    pub put: u64,
    pub delete: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub keys: u64,
    /// `Some(theta)` for scrambled zipfian keys, `None` for uniform.
    pub theta: Option<f64>,
    pub mix: Mix,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "read_zipf_1m",
        why: "get path dominates: routing, pinned deferred descent, node layout and cache misses",
        keys: 1_000_000,
        theta: Some(0.99),
        mix: Mix {
            get: 98,
            scan: 0,
            batch: 0,
            put: 1,
            delete: 1,
        },
    },
    Workload {
        name: "write_uniform_1m",
        why: "write path dominates: DCAS loads, swings, pool allocation and epochs",
        keys: 1_000_000,
        theta: None,
        mix: Mix {
            get: 30,
            scan: 4,
            batch: 16,
            put: 25,
            delete: 25,
        },
    },
    Workload {
        name: "hot_4k",
        why: "L2-resident keys: per-hop protocol cost and contention without cache misses",
        keys: 4096,
        theta: None,
        mix: Mix {
            get: 50,
            scan: 4,
            batch: 6,
            put: 20,
            delete: 20,
        },
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn dist(&self) -> Dist {
        match self.theta {
            Some(theta) => Dist::Zipf(Zipf::new(self.keys, theta)),
            None => Dist::Uniform(self.keys),
        }
    }
}

/// Anchors (keys ≡ 0 mod 4) are prepopulated and never written, so a
/// `get` of one must hit and a scan must return every one in its range.
pub fn is_anchor(key: u64) -> bool {
    key.is_multiple_of(4)
}

/// One generated operation.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Get(u64),
    Put(u64),
    Delete(u64),
    Scan(u64),
    /// All puts or all deletes, so the applied count splits by kind.
    Batch {
        put: bool,
        keys: [u64; BATCH_LEN],
    },
}

/// Op kinds, in the order latency histograms are kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get = 0,
    Write = 1,
    Scan = 2,
    Batch = 3,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Get => "get",
            Kind::Write => "write",
            Kind::Scan => "scan",
            Kind::Batch => "batch",
        }
    }
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Get(_) => Kind::Get,
            Op::Put(_) | Op::Delete(_) => Kind::Write,
            Op::Scan(_) => Kind::Scan,
            Op::Batch { .. } => Kind::Batch,
        }
    }
}

/// One client thread's op stream.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: Rng,
    dist: Dist,
    mix: Mix,
}

impl Stream {
    pub fn new(w: &Workload, dist: Dist, seed: u64, thread: u64) -> Stream {
        Stream {
            rng: Rng::new(seed, thread),
            dist,
            mix: w.mix,
        }
    }

    fn key(&mut self) -> u64 {
        self.dist.key(&mut self.rng)
    }

    /// A write key: anchors move to the next non-anchor even key.
    fn write_key(&mut self) -> u64 {
        let k = self.key();
        if is_anchor(k) {
            k + 2
        } else {
            k
        }
    }

    pub fn next_op(&mut self) -> Op {
        let m = self.mix;
        let r = self.rng.below(100);
        if r < m.get {
            Op::Get(self.key())
        } else if r < m.get + m.scan {
            Op::Scan(self.key())
        } else if r < m.get + m.scan + m.batch {
            let put = self.rng.below(2) == 0;
            let mut keys = [0; BATCH_LEN];
            for k in &mut keys {
                *k = self.write_key();
            }
            Op::Batch { put, keys }
        } else if r < m.get + m.scan + m.batch + m.put {
            Op::Put(self.write_key())
        } else {
            debug_assert!(r < m.get + m.scan + m.batch + m.put + m.delete);
            Op::Delete(self.write_key())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_sum_to_100_and_key_spaces_hold_anchors() {
        for w in WORKLOADS {
            let m = w.mix;
            assert_eq!(
                m.get + m.scan + m.batch + m.put + m.delete,
                100,
                "{}",
                w.name
            );
            assert_eq!(w.keys % 4, 0, "{}", w.name);
        }
    }

    #[test]
    fn streams_repeat_per_seed_and_never_write_anchors() {
        for w in WORKLOADS {
            let mut a = Stream::new(&w, w.dist(), 7, 0);
            let mut b = Stream::new(&w, w.dist(), 7, 0);
            for _ in 0..10_000 {
                let (x, y) = (a.next_op(), b.next_op());
                assert_eq!(format!("{x:?}"), format!("{y:?}"));
                match x {
                    Op::Put(k) | Op::Delete(k) => assert!(!is_anchor(k) && k < w.keys),
                    Op::Batch { keys, .. } => {
                        assert!(keys.iter().all(|&k| !is_anchor(k) && k < w.keys))
                    }
                    Op::Get(k) | Op::Scan(k) => assert!(k < w.keys),
                }
            }
        }
    }
}
