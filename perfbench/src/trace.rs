//! The traced run: in-process shadows of the timed commands, calling
//! each layer's public functions in the order the CLI does, with a span
//! around every call.
//!
//! Spans live in memory (name, parent, start, duration, counters) and
//! are written out as JSON when the run ends. Where a public function
//! runs another layer inside (`warm_embed` repairs then trains; a
//! `GpuPartitioned` level runs Algorithm 5), the split comes from the
//! report the function returns and its child span is marked
//! `"reported": true`.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use gosh_coarsen::hierarchy::{coarsen_hierarchy, CoarsenConfig, Hierarchy};
use gosh_core::backend::{
    backends_for, BackendKind, LevelSchedule, PartitionedOpts, Similarity, TrainBackend,
    TrainParams,
};
use gosh_core::config::{GoshConfig, Preset};
use gosh_core::expand::expand_embedding_parallel;
use gosh_core::model::Embedding;
use gosh_core::schedule::epoch_distribution;
use gosh_core::serve::{search_batch, search_exact, IvfIndex};
use gosh_core::store::{write_store, EmbeddingStore};
use gosh_core::train_gpu::KernelVariant;
use gosh_core::warm::{warm_embed, WarmConfig};
use gosh_gpu::{Device, DeviceConfig};
use gosh_graph::ingest::{load_edge_list_parallel, IngestConfig};
use gosh_graph::stream::{apply_delta, load_delta, resolve_delta};

use crate::input::{Input, DIM};
use crate::serve::{Queries, BATCH, K, NPROBE};

/// The CLI's default simulated device (`--device-mb` unset).
pub const DEFAULT_DEVICE_MB: usize = 12 * 1024;

pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub dur_s: f64,
    pub label: String,
    pub counters: Vec<(&'static str, f64)>,
    pub reported: bool,
}

/// In-memory span recorder. When off, `span` only runs its closure.
pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_s: self.t0.elapsed().as_secs_f64(),
            dur_s: 0.0,
            label: String::new(),
            counters: Vec::new(),
            reported: false,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].dur_s = self.t0.elapsed().as_secs_f64() - self.spans[id].start_s;
        out
    }

    /// Attach a counter (or a label) to the innermost open span.
    pub fn count(&mut self, key: &'static str, value: f64) {
        if let Some(&id) = self.stack.last() {
            self.spans[id].counters.push((key, value));
        }
    }

    pub fn label(&mut self, label: String) {
        if let Some(&id) = self.stack.last() {
            self.spans[id].label = label;
        }
    }

    /// A child span whose duration and counters the program reported.
    pub fn reported(&mut self, name: &'static str, dur_s: f64, counters: Vec<(&'static str, f64)>) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied();
        let start_s = parent.map_or(0.0, |p| self.spans[p].start_s);
        self.spans.push(Span {
            name,
            parent,
            start_s,
            dur_s,
            label: String::new(),
            counters,
            reported: true,
        });
    }

    /// The root span named `root` (a pass).
    pub fn root(&self, root: &str) -> Option<usize> {
        self.spans
            .iter()
            .position(|s| s.parent.is_none() && s.name == root)
    }

    fn under(&self, mut id: usize, root: usize) -> bool {
        loop {
            if id == root {
                return true;
            }
            match self.spans[id].parent {
                Some(p) => id = p,
                None => return false,
            }
        }
    }

    /// Spans named `name` inside the pass `root`.
    pub fn within<'a>(&'a self, root: &str, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        let r = self.root(root);
        self.spans
            .iter()
            .enumerate()
            .filter(move |(i, s)| s.name == name && r.is_some_and(|r| self.under(*i, r)))
            .map(|(_, s)| s)
    }

    pub fn secs(&self, root: &str, name: &str) -> f64 {
        self.within(root, name).map(|s| s.dur_s).sum()
    }

    pub fn counter(&self, root: &str, name: &str, key: &str) -> f64 {
        self.within(root, name)
            .flat_map(|s| s.counters.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    }

    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let counters: Vec<String> = sp
                .counters
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            let _ = writeln!(
                s,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {}, \"start_s\": {:.9}, \"dur_s\": {:.9}, \"label\": \"{}\", \"reported\": {}, \"counters\": {{{}}}}}{}",
                sp.name,
                sp.parent.map_or("null".to_string(), |p| p.to_string()),
                sp.start_s,
                sp.dur_s,
                sp.label,
                sp.reported,
                counters.join(", "),
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        s.push(']');
        s
    }
}

/// The pipeline configuration `gosh embed --dim D --epochs E --threads T`
/// builds (`build_config` in the CLI).
fn embed_config(threads: usize, epochs: u32) -> GoshConfig {
    GoshConfig::preset(Preset::Normal, false)
        .with_dim(DIM)
        .with_threads(threads)
        .with_epochs(epochs)
}

/// Per-level record of a shadowed embed: the backend of each level,
/// coarsest first.
pub struct EmbedShadow {
    pub backends: Vec<BackendKind>,
}

/// Shadow of `gosh embed <train> <out> --dim D --epochs E --threads T
/// [--device-mb M]`: ingest, `pipeline::embed`'s steps one by one, and
/// the `.embin` write (the `.emb` text writer is private to the CLI).
pub fn embed_pass(
    tr: &mut Tracer,
    root: &'static str,
    input: &Input,
    device_mb: usize,
    threads: usize,
    epochs: u32,
    out: &Path,
) -> Result<EmbedShadow, String> {
    tr.span(root, |tr| {
        let loaded = tr.span("graph.ingest", |tr| {
            tr.count(
                "bytes",
                std::fs::metadata(&input.train_path).map_or(0.0, |m| m.len() as f64),
            );
            load_edge_list_parallel(&input.train_path, &IngestConfig::with_threads(threads))
        });
        let g = loaded.map_err(|e| format!("ingest: {e}"))?.graph;
        let cfg = embed_config(threads, epochs);
        let device = Device::new(DeviceConfig::tiny(device_mb << 20));
        let cost0 = device.snapshot();

        let hierarchy: Hierarchy = tr.span("coarsen.hierarchy", |tr| {
            let h = coarsen_hierarchy(
                g.clone(),
                &CoarsenConfig {
                    threshold: cfg.coarsen_threshold,
                    threads: cfg.threads,
                    ..Default::default()
                },
            );
            tr.count("levels", h.depth() as f64);
            tr.count(
                "collapsed",
                (g.num_vertices() - h.coarsest().num_vertices()) as f64,
            );
            h
        });
        let depth = hierarchy.depth();
        let dist = epoch_distribution(cfg.epochs, cfg.smoothing.unwrap_or(1.0), depth);
        let mut matrix = Embedding::random(hierarchy.coarsest().num_vertices(), cfg.dim, cfg.seed);
        let variant = if cfg.small_dim_kernel {
            KernelVariant::Auto
        } else {
            KernelVariant::Optimized
        };
        let params = TrainParams {
            dim: cfg.dim,
            negative_samples: cfg.negative_samples,
            lr: cfg.lr,
            epochs: cfg.epochs,
            similarity: Similarity::Adjacency,
            threads: cfg.threads,
            seed: cfg.seed,
            precision: cfg.precision,
        };
        let opts = PartitionedOpts {
            p_gpu: cfg.p_gpu,
            s_gpu: cfg.s_gpu,
            batch_b: cfg.batch_b,
        };
        let backends = backends_for(cfg.backend, &device, params, variant, opts);
        let mut shadow = EmbedShadow {
            backends: Vec::new(),
        };
        for i in (0..depth).rev() {
            let level = &hierarchy.graphs[i];
            let backend: &dyn TrainBackend = backends
                .iter()
                .find(|b| b.fits(level))
                .ok_or("no backend accepts a level")?
                .as_ref();
            tr.span("core.train.level", |tr| {
                let stats = backend.train_level(
                    level,
                    &mut matrix,
                    LevelSchedule {
                        level: i,
                        epochs: dist[i],
                        seed: cfg.seed ^ i as u64,
                        precision: None,
                    },
                );
                tr.label(format!("{:?}", stats.backend));
                tr.count("level", i as f64);
                tr.count("vertices", level.num_vertices() as f64);
                tr.count("epochs", dist[i] as f64);
                tr.count(
                    "updates",
                    dist[i] as f64
                        * level.num_vertices() as f64
                        * (1 + cfg.negative_samples) as f64,
                );
                if let Some(l) = stats.large {
                    tr.reported(
                        "core.large",
                        l.seconds,
                        vec![
                            ("loads", l.loads as f64),
                            ("evictions", l.evictions as f64),
                            ("kernels", l.kernels as f64),
                            ("transfer_stall_s", l.transfer_stall_seconds),
                            ("pool_stall_s", l.pool_stall_seconds),
                        ],
                    );
                }
                shadow.backends.push(stats.backend);
            });
            if i > 0 {
                matrix = tr.span("core.expand", |_| {
                    expand_embedding_parallel(&matrix, &hierarchy.maps[i - 1], cfg.threads)
                });
            }
        }
        let cost = device.snapshot().since(&cost0);
        let model = device.cost_model();
        tr.reported(
            "gpu.device",
            model.overlapped_seconds(&cost),
            vec![
                ("kernels", cost.kernels as f64),
                ("h2d_bytes", cost.h2d_bytes as f64),
                ("d2h_bytes", cost.d2h_bytes as f64),
                ("modeled_s", model.overlapped_seconds(&cost)),
            ],
        );
        tr.span("core.store.write", |_| {
            write_store(out, &matrix, cfg.precision)
        })
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
        Ok(shadow)
    })
}

/// Shadow of `gosh update <train> <delta> <model.embin> <out> --threads T
/// --epochs E --save-graph G`, step for step as `commands::update` runs.
pub fn update_pass(
    tr: &mut Tracer,
    input: &Input,
    threads: usize,
    epochs: u32,
    out: &Path,
    saved: &Path,
) -> Result<(), String> {
    tr.span("update", |tr| {
        let loaded = tr
            .span("graph.ingest", |_| {
                load_edge_list_parallel(&input.train_path, &IngestConfig::with_threads(threads))
            })
            .map_err(|e| format!("ingest: {e}"))?;
        let mut original_ids = loaded.original_ids;
        let g_old = loaded.graph;
        let (store, m_old) = tr
            .span("core.store.open", |_| {
                EmbeddingStore::open(input.model_store()).map(|s| {
                    let m = s.to_embedding();
                    (s, m)
                })
            })
            .map_err(|e| format!("opening model: {e}"))?;
        let (raw_epochs, _) = tr
            .span("graph.delta.load", |_| load_delta(&input.delta_path))
            .map_err(|e| format!("loading delta: {e}"))?;
        let cfg = GoshConfig::preset(Preset::Normal, false)
            .with_dim(store.dim())
            .with_threads(threads)
            .with_epochs(epochs);
        let wcfg = WarmConfig {
            fallback_fraction: 0.25,
            epoch_scale: 0.5,
            cfg,
        };
        let h_old = tr.span("coarsen.hierarchy", |_| {
            coarsen_hierarchy(
                g_old.clone(),
                &CoarsenConfig {
                    threshold: wcfg.cfg.coarsen_threshold,
                    threads,
                    ..Default::default()
                },
            )
        });
        let (g_cur, dirty) = tr.span("graph.delta.apply", |_| {
            let mut g_cur = g_old;
            let mut dirty: Vec<u32> = Vec::new();
            for raw in &raw_epochs {
                let r = resolve_delta(raw, &original_ids);
                original_ids.extend(&r.new_original_ids);
                dirty.extend(r.delta.dirty_vertices(g_cur.num_vertices()));
                g_cur = apply_delta(&g_cur, &r.delta);
            }
            dirty.sort_unstable();
            dirty.dedup();
            (g_cur, dirty)
        });
        let m_new = tr.span("core.warm", |tr| {
            let (m_new, _, rep) = warm_embed(&g_cur, &h_old, &m_old, &dirty, &wcfg);
            tr.count("dirty", dirty.len() as f64);
            tr.reported(
                "coarsen.repair",
                rep.repair_seconds,
                vec![
                    ("repaired_levels", rep.repaired_levels as f64),
                    ("fell_back", rep.fell_back as u8 as f64),
                    ("depth", rep.depth as f64),
                ],
            );
            tr.reported(
                "core.warm.train",
                rep.training_seconds,
                vec![(
                    "trained_sources",
                    rep.trained_sources.iter().sum::<usize>() as f64,
                )],
            );
            m_new
        });
        tr.span("graph.save", |_| {
            gosh_graph::io::write_edge_list(saved, &g_cur)
        })
        .map_err(|e| format!("writing {}: {e}", saved.display()))?;
        tr.span("core.store.write", |_| {
            write_store(out, &m_new, store.precision())
        })
        .map_err(|e| format!("writing {}: {e}", out.display()))
    })
}

/// In-process search times of one query set.
pub struct ServeShadow {
    pub exact_ms: Vec<f64>,
    pub ivf_ms: Vec<f64>,
}

/// Shadow of `gosh serve` and its queries: store open, IVF build, and the
/// same exact, IVF and batch searches the client sends.
pub fn serve_pass(
    tr: &mut Tracer,
    store_path: &Path,
    qs: &Queries,
    threads: usize,
    batches: usize,
) -> Result<ServeShadow, String> {
    tr.span("serve", |tr| {
        let store = tr
            .span("core.store.open", |_| EmbeddingStore::open(store_path))
            .map_err(|e| format!("opening store: {e}"))?;
        let ivf = tr.span("core.serve.ivf_build", |_| IvfIndex::build(&store, threads));
        let dim = store.dim();
        let mut row = vec![0.0f32; dim];
        let mut out = ServeShadow {
            exact_ms: Vec::new(),
            ivf_ms: Vec::new(),
        };
        for &v in &qs.ids {
            store.decode_row(v, &mut row);
            let t = Instant::now();
            std::hint::black_box(tr.span("core.serve.exact", |_| search_exact(&store, &row, K)));
            out.exact_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            std::hint::black_box(
                tr.span("core.serve.ivf", |_| ivf.search(&store, &row, K, NPROBE)),
            );
            out.ivf_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        for b in 0..batches {
            let mut rows = vec![0.0f32; BATCH * dim];
            for j in 0..BATCH {
                let v = qs.ids[(b * BATCH + j) % qs.ids.len()];
                store.decode_row(v, &mut rows[j * dim..(j + 1) * dim]);
            }
            std::hint::black_box(tr.span("core.serve.batch", |_| {
                search_batch(&store, Some(&ivf), &rows, K, 0, threads)
            }));
        }
        Ok(out)
    })
}
