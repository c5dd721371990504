//! Benchmark inputs, made from `--seed` alone: the generated community
//! graph, its 80/20 split, the first-seen interning of the training file,
//! and the edge delta of the `update` workload.
//!
//! Everything here is the benchmark's own code. The program only makes
//! the raw graph (`gosh generate`) and the bootstrap model (`gosh embed`);
//! the split, the interning rule and the delta semantics are recomputed
//! from `docs/FORMATS.md`, so the checks compare against an account of
//! the inputs that the program did not produce.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::proc::Gosh;

/// Vertices and average degree handed to `gosh generate N:K`.
pub const GRAPH_SPEC: &str = "10000:16";
/// Share of the generated edges written to the training file.
pub const TRAIN_FRACTION: f64 = 0.8;
/// Embedding dimension (the CLI default, passed explicitly).
pub const DIM: usize = 32;
/// Epoch budget of every training command.
pub const EPOCHS: u32 = 100;
/// Simulated device of `embed-partitioned`, in MB: smaller than the two
/// finest levels of the 10,000-vertex graph (about 2.5 MB and 1.3 MB at
/// dim 32), so Algorithm 5 trains them.
pub const SMALL_DEVICE_MB: usize = 1;
/// Edges retired, and edges ingested, in each of the delta's two epochs.
pub const DELTA_BATCH: usize = 40;

/// splitmix64: the benchmark's own generator, so no input depends on
/// the program's RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// An undirected edge over file ids, smaller id first.
pub type Edge = (u64, u64);

pub fn norm(u: u64, v: u64) -> Edge {
    (u.min(v), u.max(v))
}

/// Parse a text edge list: `#`/`%` comments, `u v` per line.
pub fn parse_edge_list(text: &str) -> Result<Vec<Edge>, String> {
    let mut edges = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(u), Some(v)) = (it.next(), it.next()) else {
            return Err(format!("line {}: expected `u v`", no + 1));
        };
        let u: u64 = u.parse().map_err(|_| format!("line {}: bad id", no + 1))?;
        let v: u64 = v.parse().map_err(|_| format!("line {}: bad id", no + 1))?;
        edges.push((u, v));
    }
    Ok(edges)
}

/// First-seen interning of an edge list (`docs/FORMATS.md`): dense id
/// `i` is the `i`-th distinct file id met reading lines in order, `u`
/// before `v`.
#[derive(Clone, Debug, Default)]
pub struct Interning {
    pub dense: HashMap<u64, u32>,
    pub file_id: Vec<u64>,
}

impl Interning {
    pub fn of(edges: &[Edge]) -> Self {
        let mut me = Self::default();
        for &(u, v) in edges {
            me.intern(u);
            me.intern(v);
        }
        me
    }

    pub fn intern(&mut self, id: u64) -> u32 {
        let next = self.file_id.len() as u32;
        *self.dense.entry(id).or_insert_with(|| {
            self.file_id.push(id);
            next
        })
    }

    pub fn get(&self, id: u64) -> Option<u32> {
        self.dense.get(&id).copied()
    }

    pub fn len(&self) -> usize {
        self.file_id.len()
    }

    /// Edges whose endpoints both have a dense id, mapped to dense ids.
    pub fn map_known(&self, edges: &[Edge]) -> Vec<(u32, u32)> {
        edges
            .iter()
            .filter_map(|&(u, v)| Some((self.get(u)?, self.get(v)?)))
            .collect()
    }
}

/// One epoch of an edge delta, in file ids.
#[derive(Clone, Debug, Default)]
pub struct DeltaEpoch {
    pub ins: Vec<Edge>,
    pub del: Vec<Edge>,
}

/// The `update` workload's delta and what applying it must give.
#[derive(Clone, Debug)]
pub struct Delta {
    pub epochs: Vec<DeltaEpoch>,
    /// Training edges after the delta (file ids, normalized).
    pub edited: HashSet<Edge>,
    /// Interning after the delta: the training file's, plus the fresh
    /// ids of insertions appended in first-seen order.
    pub interning: Interning,
    /// Dense ids (pre-delta space) named by any delta line.
    pub touched: HashSet<u32>,
    /// Held-out edges the delta does not name, for `auc` after update.
    pub held_out_left: Vec<Edge>,
}

impl Delta {
    /// A rolling-window delta like `gosh bench-stream`'s: each epoch
    /// retires the oldest `DELTA_BATCH` training edges (arrival order is
    /// a seeded shuffle) and ingests the next `DELTA_BATCH` edges of the
    /// stream (taken from the front of the held-out list, which is
    /// itself shuffled). The first epoch also inserts and deletes three
    /// edges at once (deletion wins), deletes an edge naming an unknown
    /// id (dropped), and attaches a fresh vertex; the second re-inserts
    /// an edge the first retired (later epochs see earlier results).
    pub fn build(seed: u64, train: &[Edge], held_out: &[Edge], interning: &Interning) -> Self {
        let mut rng = Rng::new(seed ^ 0xDE17A);
        let mut arrival: Vec<Edge> = train.to_vec();
        rng.shuffle(&mut arrival);
        let b = DELTA_BATCH;
        let future = held_out;
        let fresh_id = 1 << 40 | seed & 0xFFFF;
        let unknown_id = (1 << 41) | seed & 0xFFFF;

        let mut e0 = DeltaEpoch {
            del: arrival[..b].to_vec(),
            ins: future[..b].to_vec(),
        };
        for &e in &future[b..b + 3] {
            e0.ins.push(e);
            e0.del.push(e);
        }
        e0.del.push((unknown_id, arrival[b].0));
        e0.ins.push((fresh_id, arrival[2 * b].0));
        let mut e1 = DeltaEpoch {
            del: arrival[b..2 * b].to_vec(),
            ins: future[b + 3..2 * b + 3].to_vec(),
        };
        e1.ins.push(arrival[0]);
        let epochs = vec![e0, e1];

        let mut edited: HashSet<Edge> = train.iter().map(|&(u, v)| norm(u, v)).collect();
        let mut after = interning.clone();
        let mut touched = HashSet::new();
        for ep in &epochs {
            for &(u, v) in &ep.ins {
                after.intern(u);
                after.intern(v);
            }
            let del: HashSet<Edge> = ep.del.iter().map(|&(u, v)| norm(u, v)).collect();
            for &(u, v) in &ep.ins {
                if u != v && !del.contains(&norm(u, v)) {
                    edited.insert(norm(u, v));
                }
            }
            for e in &del {
                edited.remove(e);
            }
            for &(u, v) in ep.ins.iter().chain(&ep.del) {
                touched.extend(interning.get(u));
                touched.extend(interning.get(v));
            }
        }
        let named: HashSet<Edge> = epochs
            .iter()
            .flat_map(|ep| ep.ins.iter().chain(&ep.del))
            .map(|&(u, v)| norm(u, v))
            .collect();
        let held_out_left = held_out
            .iter()
            .filter(|&&(u, v)| !named.contains(&norm(u, v)))
            .copied()
            .collect();
        Self {
            epochs,
            edited,
            interning: after,
            touched,
            held_out_left,
        }
    }

    pub fn to_text(&self) -> String {
        let mut s = String::from("# perfbench rolling-window delta\n");
        for ep in &self.epochs {
            for &(u, v) in &ep.del {
                let _ = writeln!(s, "- {u} {v}");
            }
            for &(u, v) in &ep.ins {
                let _ = writeln!(s, "+ {u} {v}");
            }
            s.push_str("commit\n");
        }
        s
    }

    /// The edited training edges in post-delta dense ids.
    pub fn edited_dense(&self) -> Vec<(u32, u32)> {
        let edges: Vec<Edge> = self.edited.iter().copied().collect();
        self.interning.map_known(&edges)
    }
}

/// What a workload needs before its first timed operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Needs {
    /// The graph, its split and the training file.
    Graph,
    /// Plus a bootstrap model and the delta file.
    Model,
}

/// The set-up of one run: files on disk plus the benchmark's own
/// account of them.
pub struct Input {
    pub dir: PathBuf,
    pub train_path: PathBuf,
    pub train: Vec<Edge>,
    pub held_out: Vec<Edge>,
    /// Every generated edge, normalized (non-edge sampling).
    pub all_edges: HashSet<Edge>,
    pub interning: Interning,
    /// Model trained on the training file (`Needs::Model`).
    pub model_path: PathBuf,
    pub delta_path: PathBuf,
    pub delta: Option<Delta>,
}

impl Input {
    /// Generate, split and write the inputs under `dir`; bootstrap the
    /// model with the CPU backend (the warm path is CPU-only, and it is
    /// the fastest way to a trained model) when `needs` asks for it.
    pub fn setup(gosh: &Gosh, dir: &Path, seed: u64, needs: Needs) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let full = dir.join("full.txt");
        let seed_arg = seed.to_string();
        gosh.run_quiet(&[
            "generate",
            GRAPH_SPEC,
            path_str(&full)?,
            "--seed",
            &seed_arg,
        ])?;
        let text =
            std::fs::read_to_string(&full).map_err(|e| format!("reading generated graph: {e}"))?;
        let edges = parse_edge_list(&text)?;

        let mut order: Vec<usize> = (0..edges.len()).collect();
        Rng::new(seed).shuffle(&mut order);
        let n_held = edges.len() - (edges.len() as f64 * TRAIN_FRACTION).round() as usize;
        let mut is_held = vec![false; edges.len()];
        for &i in &order[..n_held] {
            is_held[i] = true;
        }
        let held_out: Vec<Edge> = order[..n_held].iter().map(|&i| edges[i]).collect();
        // The training file keeps the generated lines, in their order.
        let train: Vec<Edge> = edges
            .iter()
            .zip(&is_held)
            .filter(|(_, &h)| !h)
            .map(|(&e, _)| e)
            .collect();
        let mut body = String::with_capacity(train.len() * 12);
        for &(u, v) in &train {
            let _ = writeln!(body, "{u} {v}");
        }
        let train_path = dir.join("train.txt");
        std::fs::write(&train_path, body).map_err(|e| format!("writing training file: {e}"))?;
        let interning = Interning::of(&train);

        let model_path = dir.join("model.emb");
        let delta_path = dir.join("delta.txt");
        let mut delta = None;
        if needs == Needs::Model {
            gosh.run_quiet(&[
                "embed",
                path_str(&train_path)?,
                path_str(&model_path)?,
                "--threads",
                &gosh.threads.to_string(),
                "--dim",
                &DIM.to_string(),
                "--epochs",
                &EPOCHS.to_string(),
                "--backend",
                "cpu",
            ])?;
            let d = Delta::build(seed, &train, &held_out, &interning);
            std::fs::write(&delta_path, d.to_text()).map_err(|e| format!("writing delta: {e}"))?;
            delta = Some(d);
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            train_path,
            all_edges: edges.iter().map(|&(u, v)| norm(u, v)).collect(),
            train,
            held_out,
            interning,
            model_path,
            delta_path,
            delta,
        })
    }

    /// Held-out edges with both endpoints in the training file, in its
    /// dense ids: the link-prediction positives.
    pub fn held_out_dense(&self) -> Vec<(u32, u32)> {
        self.interning.map_known(&self.held_out)
    }

    pub fn model_store(&self) -> PathBuf {
        self.model_path.with_extension("embin")
    }
}

pub fn path_str(p: &Path) -> Result<&str, String> {
    p.to_str()
        .ok_or_else(|| format!("non-UTF-8 path {}", p.display()))
}
