//! Output checks, computed apart from the program: the `.embin` is
//! decoded by this file's own reader, scores are this file's own dot
//! products, and expected graphs and top-k lists are recomputed from
//! the benchmark's account of the inputs. Each check returns `Err` with
//! what it saw; `SelfTest` and the `self_test_*` functions show each
//! one catching an injected fault.

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::input::{norm, Edge, Interning, Rng};

/// Held-out edges must outscore sampled non-edges in at least this
/// share of pairs (a trained model scores about 0.9 here, a random one
/// 0.5).
pub const RANK_FLOOR: f64 = 0.8;
/// `auc` after `gosh update` must stay above this.
pub const UPDATE_AUC_FLOOR: f64 = 0.8;
/// Rows no delta line names must keep at least this cosine similarity
/// to their pre-update row (see `untouched_rows`).
pub const UNTOUCHED_COS_FLOOR: f64 = 0.5;
/// IVF recall@k against brute force must reach this.
pub const RECALL_FLOOR: f64 = 0.8;

/// An `.embin` store decoded by the benchmark (f32 stores only: every
/// command here writes f32).
#[derive(Clone, Debug)]
pub struct Store {
    pub n: usize,
    pub dim: usize,
    pub rows: Vec<f32>,
}

impl Store {
    pub fn row(&self, v: usize) -> &[f32] {
        &self.rows[v * self.dim..(v + 1) * self.dim]
    }

    pub fn dot(&self, a: usize, q: &[f32]) -> f64 {
        self.row(a)
            .iter()
            .zip(q)
            .map(|(&x, &y)| x as f64 * y as f64)
            .sum()
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Decode an `.embin` per `docs/FORMATS.md` and check it holds one
/// finite row per expected vertex at dimension `dim`.
pub fn store(bytes: &[u8], n: usize, dim: usize) -> Result<Store, String> {
    if bytes.len() < 40 || &bytes[..8] != b"GOSHEMB1" {
        return Err(format!("not an embin store ({} bytes)", bytes.len()));
    }
    let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8 bytes"));
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != 1 || bytes[12] != 0 {
        return Err(format!(
            "version {version}, precision {} (want 1, f32)",
            bytes[12]
        ));
    }
    let (rows, d) = (u64_at(16) as usize, u64_at(24) as usize);
    let payload = &bytes[40..];
    if rows != n || d != dim {
        return Err(format!("store is {rows} x {d}, want {n} x {dim}"));
    }
    if payload.len() != n * dim * 4 {
        return Err(format!(
            "payload is {} bytes, want {}",
            payload.len(),
            n * dim * 4
        ));
    }
    if fnv1a64(payload) != u64_at(32) {
        return Err("payload checksum mismatch".into());
    }
    let rows: Vec<f32> = payload
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();
    if let Some(i) = rows.iter().position(|x| !x.is_finite()) {
        return Err(format!("row {} holds a non-finite value", i / dim));
    }
    Ok(Store { n, dim, rows })
}

/// Rows of a text `.emb`: `(label, values)` after the `n dim` header.
pub fn emb_rows(text: &str) -> Result<Vec<(&str, Vec<&str>)>, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty .emb")?;
    let n: usize = header
        .split_whitespace()
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad .emb header `{header}`"))?;
    let rows: Vec<_> = lines
        .map(|l| {
            let mut it = l.split_whitespace();
            (it.next().unwrap_or(""), it.collect())
        })
        .collect();
    if rows.len() != n {
        return Err(format!("header says {n} rows, file has {}", rows.len()));
    }
    Ok(rows)
}

/// The `.emb` text agrees with the store: row `i` prints store row `i`
/// to six decimals, value for value.
pub fn text_matches_store(text: &str, s: &Store) -> Result<(), String> {
    let rows = emb_rows(text)?;
    if rows.len() != s.n {
        return Err(format!(".emb has {} rows, store {}", rows.len(), s.n));
    }
    let mut printed = String::new();
    let mut bad = 0usize;
    for (i, (_, vals)) in rows.iter().enumerate() {
        let row = s.row(i);
        let agrees = vals.len() == s.dim
            && vals.iter().zip(row).all(|(t, x)| {
                printed.clear();
                let _ = write!(printed, "{x:.6}");
                *t == printed
            });
        bad += !agrees as usize;
    }
    match bad {
        0 => Ok(()),
        _ => Err(format!(
            "{bad} of {} .emb rows disagree with the store",
            s.n
        )),
    }
}

/// Every `.emb` row is labelled with its vertex's id in the input file
/// (`docs/FORMATS.md`: text output uses the original ids).
pub fn labels(text: &str, interning: &Interning) -> Result<(), String> {
    let rows = emb_rows(text)?;
    let bad = rows
        .iter()
        .enumerate()
        .filter(|(i, (label, _))| label.parse::<u64>().ok() != interning.file_id.get(*i).copied())
        .count();
    match bad {
        0 => Ok(()),
        _ => Err(format!(
            "{bad} of {} rows are not labelled with their input-file id",
            rows.len()
        )),
    }
}

/// Held-out edges outscore sampled non-edges: the share of pairs
/// `(held-out edge i, sampled non-edge i)` in which the edge's dot
/// product is higher (ties count half) must reach `RANK_FLOOR`.
pub fn ranking(
    s: &Store,
    positives: &[(u32, u32)],
    edges: &HashSet<Edge>,
    file_id: &[u64],
    seed: u64,
) -> Result<f64, String> {
    let mut rng = Rng::new(seed ^ 0x4E6);
    let n = file_id.len().min(s.n);
    let mut wins = 0.0;
    for &(u, v) in positives {
        let (a, b) = loop {
            let (a, b) = (rng.below(n), rng.below(n));
            if a != b && !edges.contains(&norm(file_id[a], file_id[b])) {
                break (a, b);
            }
        };
        let (pos, neg) = (s.dot(u as usize, s.row(v as usize)), s.dot(a, s.row(b)));
        wins += if pos > neg {
            1.0
        } else if pos == neg {
            0.5
        } else {
            0.0
        };
    }
    let score = wins / positives.len().max(1) as f64;
    if score >= RANK_FLOOR {
        Ok(score)
    } else {
        Err(format!(
            "held-out edges outrank non-edges in {score:.3} of pairs (floor {RANK_FLOOR})"
        ))
    }
}

fn cosine(a: &[f32], b: &[f32]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum();
    let na: f64 = a.iter().map(|&x| x as f64 * x as f64).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|&x| x as f64 * x as f64).sum::<f64>().sqrt();
    dot / (na * nb).max(f64::MIN_POSITIVE)
}

/// Rows that no delta line names stay near their pre-update rows. Not
/// bit for bit: warm start trains dirty sources only, but each update
/// also moves its positive and negative sample rows (`fused_update`),
/// so every row can move a little. A row replaced, negated or zeroed
/// drops below the floor. Returns the smallest cosine seen.
pub fn untouched_rows(old: &Store, new: &Store, touched: &HashSet<u32>) -> Result<f64, String> {
    let mut worst = f64::INFINITY;
    let mut bad = 0usize;
    for v in (0..old.n).filter(|v| !touched.contains(&(*v as u32))) {
        let c = cosine(old.row(v), new.row(v));
        worst = worst.min(c);
        if c < UNTOUCHED_COS_FLOOR || c.is_nan() {
            bad += 1;
        }
    }
    match bad {
        0 => Ok(worst),
        _ => Err(format!(
            "{bad} untouched rows moved away from their old rows (cosine < {UNTOUCHED_COS_FLOOR}; min {worst:.3})"
        )),
    }
}

/// The graph `gosh update --save-graph` wrote (dense ids) equals the
/// benchmark's own edit of the training edges by the delta.
pub fn saved_graph(text: &str, n: usize, expected: &[(u32, u32)]) -> Result<(), String> {
    let sorted = |edges: &mut Vec<(u32, u32)>| {
        for e in edges.iter_mut() {
            *e = (e.0.min(e.1), e.0.max(e.1));
        }
        edges.sort_unstable();
        edges.dedup();
    };
    let mut got: Vec<(u32, u32)> = crate::input::parse_edge_list(text)?
        .into_iter()
        .map(|(u, v)| (u as u32, v as u32))
        .collect();
    let mut want = expected.to_vec();
    sorted(&mut got);
    sorted(&mut want);
    let header_n = text
        .lines()
        .next()
        .and_then(|l| l.split(": ").nth(1))
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse::<usize>().ok());
    if header_n != Some(n) {
        return Err(format!("saved graph has {header_n:?} vertices, want {n}"));
    }
    if got == want {
        return Ok(());
    }
    let missing = want
        .iter()
        .filter(|e| got.binary_search(e).is_err())
        .count();
    let extra = got
        .iter()
        .filter(|e| want.binary_search(e).is_err())
        .count();
    Err(format!(
        "saved graph: {missing} edges missing, {extra} unexpected"
    ))
}

/// One hit as the wire carries it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hit {
    pub id: u32,
    pub score: f32,
}

/// Brute-force top-k over the store rows: score descending, then id
/// ascending (the documented order).
pub fn brute_top_k(s: &Store, q: &[f32], k: usize) -> Vec<(u32, f64)> {
    let mut all: Vec<(u32, f64)> = (0..s.n).map(|v| (v as u32, s.dot(v, q))).collect();
    let k = k.min(all.len());
    all.select_nth_unstable_by(k.saturating_sub(1), |a, b| {
        b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
    });
    all.truncate(k);
    all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    all
}

/// Scores of the server (f32, its own summation order) and of the
/// brute force (f64) may differ in the last bits; ranks may swap only
/// between scores this close.
const SCORE_TOL: f64 = 1e-4;

/// An exact answer equals the brute-force top-k rank for rank: each
/// hit's reported score and its own recomputed score (`true_score`)
/// match the brute-force score at that rank, ids are distinct, and
/// scores descend. Hits whose scores tie within `SCORE_TOL` may so
/// trade places, and nothing else may.
pub fn exact_answer(
    hits: &[Hit],
    want: &[(u32, f64)],
    true_score: &dyn Fn(u32) -> f64,
) -> Result<(), String> {
    if hits.len() != want.len() {
        return Err(format!("{} hits, want {}", hits.len(), want.len()));
    }
    let mut seen = HashSet::new();
    for (r, (h, &(id, score))) in hits.iter().zip(want).enumerate() {
        let tol = SCORE_TOL * score.abs().max(1.0);
        if (h.score as f64 - score).abs() > tol {
            return Err(format!("rank {r}: score {} want {score:.6}", h.score));
        }
        if h.id != id && (true_score(h.id) - score).abs() > tol {
            return Err(format!("rank {r}: id {} want {id}", h.id));
        }
        if !seen.insert(h.id) || (r > 0 && hits[r - 1].score < h.score) {
            return Err(format!("rank {r}: repeated id or scores not descending"));
        }
    }
    Ok(())
}

/// Share of brute-force top-k ids the IVF answer found.
pub fn recall(hits: &[Hit], want: &[(u32, f64)]) -> f64 {
    let found = want
        .iter()
        .filter(|(id, _)| hits.iter().any(|h| h.id == *id))
        .count();
    found as f64 / want.len().max(1) as f64
}

/// Inject one fault into a copy of each real output and require the
/// matching check to reject it. A check that cannot fail shows nothing,
/// so a self-test failure makes the run incorrect.
pub struct SelfTest<'a> {
    pub store_bytes: &'a [u8],
    pub store: &'a Store,
    pub text: Option<&'a str>,
    pub interning: &'a Interning,
    pub positives: &'a [(u32, u32)],
    pub edges: &'a HashSet<Edge>,
    pub seed: u64,
}

impl SelfTest<'_> {
    /// Embedding outputs: truncated store, permuted rows, and a label
    /// check that passes on correctly labelled text.
    pub fn embedding(&self) -> Result<usize, String> {
        let s = self.store;
        let truncated = &self.store_bytes[..self.store_bytes.len() - 1];
        expect_err("truncated store", store(truncated, s.n, s.dim))?;
        let mut order: Vec<usize> = (0..s.n).collect();
        Rng::new(self.seed).shuffle(&mut order);
        let permuted = Store {
            rows: order
                .iter()
                .flat_map(|&v| s.row(v).iter().copied())
                .collect(),
            ..s.clone()
        };
        expect_err(
            "permuted rows (ranking)",
            ranking(
                &permuted,
                self.positives,
                self.edges,
                &self.interning.file_id,
                self.seed,
            ),
        )?;
        let mut done = 2;
        if let Some(text) = self.text {
            expect_err("permuted rows (text)", text_matches_store(text, &permuted))?;
            let relabelled: String = std::iter::once(format!("{} {}", s.n, s.dim))
                .chain(emb_rows(text)?.iter().enumerate().map(|(i, (_, vals))| {
                    format!(
                        "{} {}",
                        self.interning.file_id.get(i).copied().unwrap_or(u64::MAX),
                        vals.join(" ")
                    )
                }))
                .collect::<Vec<_>>()
                .join("\n");
            labels(&relabelled, self.interning)
                .map_err(|e| format!("self-test: label check rejects correct labels: {e}"))?;
            done += 2;
        }
        Ok(done)
    }
}

/// `gosh update`: one negated untouched row, one edge missing from the
/// saved graph.
pub fn self_test_update(
    old: &Store,
    new: &Store,
    touched: &HashSet<u32>,
    saved: &str,
    n: usize,
    expected: &[(u32, u32)],
) -> Result<usize, String> {
    let v = (0..old.n)
        .find(|v| !touched.contains(&(*v as u32)))
        .ok_or("no untouched row")?;
    let mut flipped = new.clone();
    for x in &mut flipped.rows[v * new.dim..(v + 1) * new.dim] {
        *x = -*x;
    }
    expect_err(
        "flipped untouched row",
        untouched_rows(old, &flipped, touched),
    )?;
    expect_err("missing edge", saved_graph(saved, n, &expected[1..]))?;
    Ok(2)
}

/// Serving: a wrong hit in an exact answer (the lowest-scoring row in
/// place of the k-th), a half-empty IVF answer.
pub fn self_test_serve(
    hits: &[Hit],
    want: &[(u32, f64)],
    n: usize,
    true_score: &dyn Fn(u32) -> f64,
) -> Result<usize, String> {
    let mut wrong = hits.to_vec();
    let last = wrong.len() - 1;
    wrong[last].id = (0..n as u32)
        .min_by(|&a, &b| true_score(a).total_cmp(&true_score(b)))
        .expect("a nonempty store");
    expect_err("wrong hit", exact_answer(&wrong, want, true_score))?;
    if recall(&hits[..hits.len() / 2], want) >= RECALL_FLOOR {
        return Err("self-test: recall check accepts a half-empty answer".into());
    }
    Ok(2)
}

fn expect_err<T>(case: &str, r: Result<T, String>) -> Result<(), String> {
    match r {
        Err(_) => Ok(()),
        Ok(_) => Err(format!(
            "self-test: the check accepted an injected fault ({case})"
        )),
    }
}
