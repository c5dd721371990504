//! The `serve` workload: `gosh serve` on the set-up model's store, one
//! closed-loop client sending single exact queries, single IVF queries
//! and fixed-size exact batches.

use std::path::Path;
use std::time::Instant;

use gosh_core::serve::ServeClient;

use crate::check::{self, Hit, Store};
use crate::input::Rng;
use crate::proc::Gosh;

/// Neighbours per query.
pub const K: usize = 10;
/// IVF lists probed per query (of about 100 for 10,000 rows).
pub const NPROBE: usize = 8;
/// Distinct query vertices per run.
pub const QUERY_VERTICES: usize = 400;
/// Single exact and single IVF queries per round.
pub const SINGLES: usize = 400;
/// Batches per round, and queries per batch.
pub const BATCHES: usize = 20;
pub const BATCH: usize = 32;

/// The query set: store rows of seeded vertices, with their brute-force
/// top-k computed by the benchmark.
pub struct Queries {
    pub ids: Vec<u32>,
    pub want: Vec<Vec<(u32, f64)>>,
}

impl Queries {
    pub fn new(s: &Store, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5E7E);
        let ids: Vec<u32> = (0..QUERY_VERTICES).map(|_| rng.below(s.n) as u32).collect();
        let want = ids
            .iter()
            .map(|&v| check::brute_top_k(s, s.row(v as usize), K))
            .collect();
        Self { ids, want }
    }

    /// Query `i` of a round (the set repeats).
    pub fn at(&self, i: usize) -> usize {
        i % self.ids.len()
    }

    pub fn rows(&self, s: &Store, picks: impl Iterator<Item = usize>) -> Vec<f32> {
        picks
            .flat_map(|q| s.row(self.ids[q] as usize).iter().copied())
            .collect()
    }
}

fn hits(raw: &[gosh_core::serve::Hit]) -> Vec<Hit> {
    raw.iter()
        .map(|h| Hit {
            id: h.id,
            score: h.score,
        })
        .collect()
}

/// What one round measured and checked.
#[derive(Default)]
pub struct Round {
    pub start_s: f64,
    /// Server CPU seconds spent on the round's traffic (after the first
    /// answer, before the shutdown request).
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub exact_ms: Vec<f64>,
    pub ivf_ms: Vec<f64>,
    pub batch_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Mean IVF recall@k against the brute force.
    pub recall: f64,
    /// One exact answer, kept for the self-test.
    pub sample: Option<(usize, Vec<Hit>)>,
}

impl Round {
    fn record(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            self.errors.push(e);
        }
    }
}

/// One round: start a server, query it, stop it.
pub fn round(
    gosh: &Gosh,
    store_path: &Path,
    s: &Store,
    qs: &Queries,
    r: usize,
) -> Result<Round, String> {
    let mut out = Round::default();
    let server = gosh.spawn_server(store_path)?;
    let mut client = ServeClient::connect(&server.addr).map_err(|e| format!("connecting: {e}"))?;
    let dim = s.dim;
    let exact = |client: &mut ServeClient, q: usize, nprobe: usize| {
        let t = Instant::now();
        let res = client.query(s.row(qs.ids[q] as usize), dim, K, nprobe);
        (t.elapsed().as_secs_f64() * 1e3, res)
    };
    let true_score = |q: usize| move |id: u32| s.dot(id as usize, s.row(qs.ids[q] as usize));

    // The first answer ends the start-up interval.
    let first = qs.at(r);
    let (_, res) = exact(&mut client, first, 0);
    out.start_s = server.started.elapsed().as_secs_f64();
    let cpu0 = server.cpu_s()?;
    out.record(match res {
        Ok(h) if h.len() == 1 => {
            check::exact_answer(&hits(&h[0]), &qs.want[first], &true_score(first))
        }
        Ok(h) => Err(format!("{} answers to one query", h.len())),
        Err(e) => Err(e.to_string()),
    });

    let mut found = 0.0;
    for i in 0..SINGLES {
        let q = qs.at(r * 7 + i);
        let (ms, res) = exact(&mut client, q, 0);
        out.exact_ms.push(ms);
        let res = match res {
            Ok(h) if h.len() == 1 => {
                let got = hits(&h[0]);
                let ok = check::exact_answer(&got, &qs.want[q], &true_score(q));
                if out.sample.is_none() {
                    out.sample = Some((q, got));
                }
                ok
            }
            Ok(h) => Err(format!("{} answers to one query", h.len())),
            Err(e) => Err(e.to_string()),
        };
        out.record(res);
        let (ms, res) = exact(&mut client, q, NPROBE);
        out.ivf_ms.push(ms);
        out.record(match res {
            Ok(h) if h.len() == 1 && h[0].len() == K => {
                found += check::recall(&hits(&h[0]), &qs.want[q]);
                Ok(())
            }
            Ok(h) => Err(format!(
                "IVF reply: {} answers, first with {:?} hits",
                h.len(),
                h.first().map(Vec::len)
            )),
            Err(e) => Err(e.to_string()),
        });
    }
    for b in 0..BATCHES {
        let picks: Vec<usize> = (0..BATCH).map(|j| qs.at(r * 13 + b * BATCH + j)).collect();
        let rows = qs.rows(s, picks.iter().copied());
        let t = Instant::now();
        let res = client.query(&rows, dim, K, 0);
        out.batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.record(match res {
            Ok(h) if h.len() == BATCH => picks.iter().zip(&h).try_for_each(|(&q, got)| {
                check::exact_answer(&hits(got), &qs.want[q], &true_score(q))
            }),
            Ok(h) => Err(format!("{} answers to a batch of {BATCH}", h.len())),
            Err(e) => Err(e.to_string()),
        });
    }
    let recall = found / SINGLES as f64;
    out.recall = recall;
    out.record(if recall >= check::RECALL_FLOOR {
        Ok(())
    } else {
        Err(format!(
            "IVF recall@{K} {recall:.3} below {}",
            check::RECALL_FLOOR
        ))
    });

    out.cpu_s = server.cpu_s()? - cpu0;
    out.peak_rss_mb = server.peak_rss_mb()?;
    client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    server.wait()?;
    Ok(out)
}
