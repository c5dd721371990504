//! gosh-perfbench: the end-to-end benchmark of the `gosh` CLI.
//!
//! ```text
//! gosh-perfbench --gosh BIN --python PYTHON --measure measure.py
//!                --workload embed|embed-partitioned|update|serve
//!                --seed N --seconds S --trace 0|1
//! ```
//!
//! Untraced (`--trace 0`): set up five times (the median is `setup_s`),
//! then run the workload's `gosh` command, one process at a time, and
//! check every output, round after round until `--seconds` have passed.
//! Traced (`--trace 1`): the same rounds, then in-process shadows of all
//! four workloads' commands with a span around every layer call (see
//! `trace.rs`), the per-layer metrics, and the shadows' own checks.
//! The last line of standard output is the JSON result.

#![forbid(unsafe_code)]

mod check;
mod input;
mod proc;
mod serve;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use gosh_core::model::Embedding;
use gosh_eval::{evaluate_link_prediction, EvalConfig};
use gosh_graph::builder::csr_from_edges;

use check::Store;
use input::{path_str, Delta, Input, Needs, DIM, EPOCHS, SMALL_DEVICE_MB};
use proc::Gosh;
use trace::{Tracer, DEFAULT_DEVICE_MB};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Rounds whose output `gosh-eval` also scores (`auc`).
const AUC_ROUNDS: usize = 3;
/// Epoch budget of the one-thread parity commands: the check compares
/// level structure, which does not depend on the budget.
const PARITY_EPOCHS: u32 = 20;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Embed,
    EmbedPartitioned,
    Update,
    Serve,
}

impl Workload {
    /// The workload's name, which is also its traced pass's root span.
    fn name(self) -> &'static str {
        match self {
            Workload::Embed => "embed",
            Workload::EmbedPartitioned => "embed-partitioned",
            Workload::Update => "update",
            Workload::Serve => "serve",
        }
    }

    /// The simulated device of the workload's embeds, in MB.
    fn device_mb(self) -> usize {
        match self {
            Workload::EmbedPartitioned => SMALL_DEVICE_MB,
            _ => DEFAULT_DEVICE_MB,
        }
    }
}

struct Args {
    gosh: PathBuf,
    measure: PathBuf,
    python: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let name = get("--workload")?;
    let workload = [
        Workload::Embed,
        Workload::EmbedPartitioned,
        Workload::Update,
        Workload::Serve,
    ]
    .into_iter()
    .find(|w| w.name() == name)
    .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let num =
        |key: &str| -> Result<f64, String> { get(key)?.parse().map_err(|_| format!("bad {key}")) };
    Ok(Args {
        gosh: get("--gosh")?.into(),
        measure: get("--measure")?.into(),
        python: get("--python")?.into(),
        workload,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: num("--seconds")?,
        trace: num("--trace")? != 0.0,
    })
}

/// Operation accounting: every command run and every check is one
/// operation. The `.emb` label check fails on every run because of a
/// known fault; it counts as failed and leaves `correct` alone. Any
/// other failure also makes the run incorrect.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    known: Option<String>,
}

impl Ops {
    fn op<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            self.errors.push(format!("{what}: {e}"));
        })
        .ok()
    }

    fn known_fault(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            self.known = Some(e);
        }
    }

    /// A failure that is not an operation (a self-test, a traced check).
    fn incorrect(&mut self, what: &str, r: Result<(), String>) {
        if let Err(e) = r {
            self.errors.push(format!("{what}: {e}"));
        }
    }
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile of a sample.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    v[((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1]
}

fn read(p: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(p).map_err(|e| format!("reading {}: {e}", p.display()))
}

fn read_text(p: &Path) -> Result<String, String> {
    std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))
}

/// `gosh-eval` link prediction of `s` on `test` over graph `edges`.
fn auc(s: &Store, edges: &[(u32, u32)], test: &[(u32, u32)], threads: usize) -> f64 {
    let m = Embedding::from_vec(s.rows.clone(), s.n, s.dim);
    let g = csr_from_edges(s.n, edges);
    evaluate_link_prediction(
        &m,
        &g,
        test,
        &EvalConfig {
            threads,
            ..Default::default()
        },
    )
}

/// One named figure of a run: `(name, value, unit)`.
type Metric = (&'static str, f64, &'static str);

/// Per-round samples of the untraced rounds.
#[derive(Default)]
struct Samples {
    /// Wall-clock seconds of each timed operation (for `serve`, of each
    /// exact query round trip).
    op_s: Vec<f64>,
    /// CPU seconds of each operation's `gosh` process.
    cpu_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    quality: Vec<f64>,
    serve: Vec<serve::Round>,
    /// `gosh update` rounds whose repair fell back to recoarsening.
    fell_back: usize,
    /// Smallest cosine of an untouched row to its old row.
    untouched_cos: f64,
    /// Share of the host's CPU time the hypervisor took while the rounds
    /// ran (`steal` in `/proc/stat`), when readable.
    steal: Option<f64>,
}

struct Bench {
    gosh: Gosh,
    args: Args,
    work: PathBuf,
    ops: Ops,
}

impl Bench {
    fn embed_cmd(
        &self,
        input: &Input,
        out: &Path,
        device_mb: usize,
        threads: usize,
        epochs: u32,
    ) -> Result<Vec<String>, String> {
        let mut a: Vec<String> = ["embed", path_str(&input.train_path)?, path_str(out)?]
            .map(String::from)
            .into();
        for (k, v) in [
            ("--threads", threads),
            ("--dim", DIM),
            ("--epochs", epochs as usize),
        ] {
            a.extend([k.to_string(), v.to_string()]);
        }
        if device_mb != DEFAULT_DEVICE_MB {
            a.extend(["--device-mb".to_string(), device_mb.to_string()]);
        }
        Ok(a)
    }

    fn update_cmd(
        &self,
        input: &Input,
        delta: &Path,
        out: &Path,
        saved: &Path,
        threads: usize,
    ) -> Result<Vec<String>, String> {
        let paths = [&input.train_path, delta, &input.model_store(), out];
        let mut a = vec!["update".to_string()];
        for p in paths {
            a.push(path_str(p)?.to_string());
        }
        for (k, v) in [
            ("--threads", threads.to_string()),
            ("--epochs", EPOCHS.to_string()),
            ("--save-graph", path_str(saved)?.to_string()),
        ] {
            a.extend([k.to_string(), v]);
        }
        Ok(a)
    }

    /// Checks of one `gosh embed` output pair. The first `AUC_ROUNDS`
    /// rounds also return `auc` (the `gosh-eval` classifier costs a good
    /// share of the command it scores); round 0 also runs the self-tests.
    fn check_embed(
        &mut self,
        input: &Input,
        emb: &Path,
        round: usize,
    ) -> Result<Option<f64>, String> {
        let (with_auc, self_test) = (round < AUC_ROUNDS, round == 0);
        let bytes = read(&emb.with_extension("embin"))?;
        let text = read_text(emb)?;
        let Some(s) = self
            .ops
            .op("store", check::store(&bytes, input.interning.len(), DIM))
        else {
            return Err("unreadable store".into());
        };
        let positives = input.held_out_dense();
        let ids = &input.interning.file_id;
        self.ops.op("text", check::text_matches_store(&text, &s));
        self.ops.op(
            "ranking",
            check::ranking(&s, &positives, &input.all_edges, ids, self.args.seed),
        );
        self.ops.known_fault(check::labels(&text, &input.interning));
        if self_test {
            let st = check::SelfTest {
                store_bytes: &bytes,
                store: &s,
                text: Some(&text),
                interning: &input.interning,
                positives: &positives,
                edges: &input.all_edges,
                seed: self.args.seed,
            };
            self.ops.incorrect("self-test", st.embedding().map(|_| ()));
        }
        let train = input.interning.map_known(&input.train);
        Ok(with_auc.then(|| auc(&s, &train, &positives, self.gosh.threads)))
    }

    /// Checks of one `gosh update` output: store, text, labels, rows no
    /// delta line names, the saved graph, and the held-out ranking.
    /// Returns `auc` (first `AUC_ROUNDS` rounds; it must clear its
    /// floor) and the smallest cosine of an untouched row.
    fn check_update(
        &mut self,
        input: &Input,
        delta: &Delta,
        old: &Store,
        emb: &Path,
        saved: &Path,
        round: usize,
    ) -> Result<(Option<f64>, f64), String> {
        let (with_auc, self_test) = (round < AUC_ROUNDS, round == 0);
        let bytes = read(&emb.with_extension("embin"))?;
        let text = read_text(emb)?;
        let n = delta.interning.len();
        let Some(s) = self.ops.op("store", check::store(&bytes, n, DIM)) else {
            return Err("unreadable store".into());
        };
        self.ops.op("text", check::text_matches_store(&text, &s));
        self.ops.known_fault(check::labels(&text, &delta.interning));
        let cos = self.ops.op(
            "untouched rows",
            check::untouched_rows(old, &s, &delta.touched),
        );
        let saved_text = read_text(saved)?;
        let edited = delta.edited_dense();
        self.ops
            .op("saved graph", check::saved_graph(&saved_text, n, &edited));
        let test = delta.interning.map_known(&delta.held_out_left);
        let ids = &delta.interning.file_id;
        self.ops.op(
            "ranking",
            check::ranking(&s, &test, &input.all_edges, ids, self.args.seed),
        );
        let a = with_auc.then(|| auc(&s, &edited, &test, self.gosh.threads));
        if let Some(a) = a {
            let floor = check::UPDATE_AUC_FLOOR;
            self.ops.incorrect(
                "auc",
                if a >= floor {
                    Ok(())
                } else {
                    Err(format!("{a:.4} below {floor}"))
                },
            );
        }
        if self_test {
            let st = check::SelfTest {
                store_bytes: &bytes,
                store: &s,
                text: Some(&text),
                interning: &delta.interning,
                positives: &test,
                edges: &input.all_edges,
                seed: self.args.seed,
            };
            self.ops.incorrect("self-test", st.embedding().map(|_| ()));
            let r = check::self_test_update(old, &s, &delta.touched, &saved_text, n, &edited);
            self.ops.incorrect("self-test", r.map(|_| ()));
        }
        Ok((a, cos.unwrap_or(f64::NAN)))
    }

    /// Set up `SETUP_REPS` times (once when traced): the last input and
    /// every set-up's seconds.
    fn setup(&mut self, needs: Needs) -> Result<(Input, Vec<f64>), String> {
        let reps = if self.args.trace { 1 } else { SETUP_REPS };
        let mut times = Vec::new();
        let mut last: Option<Input> = None;
        for i in 0..reps {
            let dir = self.work.join(format!("setup{i}"));
            let t = Instant::now();
            let input = Input::setup(&self.gosh, &dir, self.args.seed, needs)?;
            times.push(t.elapsed().as_secs_f64());
            if let Some(prev) = last.replace(input) {
                let _ = std::fs::remove_dir_all(&prev.dir);
            }
        }
        Ok((last.expect("at least one set-up"), times))
    }

    /// The untraced rounds: run the workload's command and check its
    /// output, round after round, until `--seconds` have passed.
    fn rounds(&mut self, input: &Input) -> Result<Samples, String> {
        let mut out = Samples {
            untouched_cos: f64::INFINITY,
            ..Default::default()
        };
        let threads = self.gosh.threads;
        let model = match self.args.workload {
            Workload::Update | Workload::Serve => Some(check::store(
                &read(&input.model_store())?,
                input.interning.len(),
                DIM,
            )?),
            _ => None,
        };
        let queries = model
            .as_ref()
            .map(|s| serve::Queries::new(s, self.args.seed));
        let started = Instant::now();
        let cpu0 = cpu_ticks();
        let mut r = 0;
        while r == 0 || started.elapsed().as_secs_f64() < self.args.seconds {
            let emb = self.work.join(format!("round{r}.emb"));
            let scratch = self.work.join(format!("round{r}.json"));
            let saved = self.work.join(format!("round{r}.graph.txt"));
            match (self.args.workload, &model, &queries) {
                (Workload::Embed | Workload::EmbedPartitioned, _, _) => {
                    let mb = self.args.workload.device_mb();
                    let cmd = self.embed_cmd(input, &emb, mb, threads, EPOCHS)?;
                    let Some(m) = self
                        .ops
                        .op("command", self.gosh.run_measured(&cmd, &scratch))
                    else {
                        break;
                    };
                    out.op_s.push(m.wall_s);
                    out.cpu_s.push(m.cpu_s);
                    out.peak_rss_mb.push(m.peak_rss_mb);
                    out.quality.extend(self.check_embed(input, &emb, r)?);
                }
                (Workload::Update, Some(old), _) => {
                    // Round 0 applies the set-up delta; later rounds draw
                    // their own, so a run's median covers many deltas.
                    let fresh;
                    let (delta, delta_path) = match r {
                        0 => (
                            input
                                .delta
                                .as_ref()
                                .expect("update set-up builds the delta"),
                            input.delta_path.clone(),
                        ),
                        _ => {
                            fresh = Delta::build(
                                self.args.seed ^ ((r as u64) << 32),
                                &input.train,
                                &input.held_out,
                                &input.interning,
                            );
                            let path = self.work.join(format!("round{r}.delta.txt"));
                            std::fs::write(&path, fresh.to_text())
                                .map_err(|e| format!("writing delta: {e}"))?;
                            (&fresh, path)
                        }
                    };
                    let cmd = self.update_cmd(input, &delta_path, &emb, &saved, threads)?;
                    let Some(m) = self
                        .ops
                        .op("command", self.gosh.run_measured(&cmd, &scratch))
                    else {
                        break;
                    };
                    out.op_s.push(m.wall_s);
                    out.cpu_s.push(m.cpu_s);
                    out.peak_rss_mb.push(m.peak_rss_mb);
                    out.fell_back += m.stdout.contains("fell back") as usize;
                    let (a, cos) = self.check_update(input, delta, old, &emb, &saved, r)?;
                    out.quality.extend(a);
                    out.untouched_cos = out.untouched_cos.min(cos);
                    if r > 0 {
                        let _ = std::fs::remove_file(&delta_path);
                    }
                }
                (Workload::Serve, Some(s), Some(qs)) => {
                    let round = serve::round(&self.gosh, &input.model_store(), s, qs, r)?;
                    out.op_s.extend(round.exact_ms.iter().map(|ms| ms / 1e3));
                    out.cpu_s.push(round.cpu_s);
                    out.peak_rss_mb.push(round.peak_rss_mb);
                    out.quality.push(round.recall);
                    self.ops.attempted += round.attempted;
                    self.ops.failed += round.failed;
                    self.ops.errors.extend(round.errors.iter().cloned());
                    if let (0, Some((q, hits))) = (r, &round.sample) {
                        let probe = s.row(qs.ids[*q] as usize);
                        let true_score = |id: u32| s.dot(id as usize, probe);
                        let st = check::self_test_serve(hits, &qs.want[*q], s.n, &true_score);
                        self.ops.incorrect("self-test", st.map(|_| ()));
                    }
                    out.serve.push(round);
                }
                _ => unreachable!("update and serve set-ups load the model"),
            }
            for p in [&emb, &emb.with_extension("embin"), &scratch, &saved] {
                let _ = std::fs::remove_file(p);
            }
            r += 1;
        }
        out.steal = cpu0
            .zip(cpu_ticks())
            .map(|((s0, t0), (s1, t1))| (s1 - s0) / (t1 - t0).max(1.0));
        Ok(out)
    }
}

/// `(steal, total)` CPU ticks of the host so far, from `/proc/stat`.
fn cpu_ticks() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<f64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user and nice.
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Parse `D = X levels ... P partitioned levels, C CPU levels` from the
/// line `gosh embed` prints.
fn command_levels(stdout: &str) -> Option<(usize, usize, usize)> {
    let line = stdout.lines().find(|l| l.starts_with("embedded:"))?;
    let before = |marker: &str| -> Option<usize> {
        let head = &line[..line.find(marker)?];
        head.rsplit(|c: char| !c.is_ascii_digit())
            .find(|w| !w.is_empty())?
            .parse()
            .ok()
    };
    Some((
        before(" levels,")?,
        before(" partitioned levels")?,
        before(" CPU levels")?,
    ))
}

impl Bench {
    /// The traced run's checks and per-layer metrics. `samples` are the
    /// untraced rounds of this run's workload (the overhead reference).
    fn traced(&mut self, input: &Input, samples: &Samples) -> Result<Vec<Metric>, String> {
        let t = self.gosh.threads;
        let w = &self.work;
        let model = check::store(&read(&input.model_store())?, input.interning.len(), DIM)?;
        let queries = serve::Queries::new(&model, self.args.seed);
        let (emb_out, part_out, upd_out, upd_graph) = (
            w.join("tr-embed.embin"),
            w.join("tr-part.embin"),
            w.join("tr-update.embin"),
            w.join("tr-update.txt"),
        );

        let mut tr = Tracer::new(true);
        trace::embed_pass(
            &mut tr,
            "embed",
            input,
            DEFAULT_DEVICE_MB,
            t,
            EPOCHS,
            &emb_out,
        )?;
        trace::embed_pass(
            &mut tr,
            "embed-partitioned",
            input,
            SMALL_DEVICE_MB,
            t,
            EPOCHS,
            &part_out,
        )?;
        trace::update_pass(&mut tr, input, t, EPOCHS, &upd_out, &upd_graph)?;
        let inproc = trace::serve_pass(&mut tr, &input.model_store(), &queries, t, serve::BATCHES)?;

        // The traced shadows' outputs pass the same checks as the
        // commands' outputs.
        let positives = input.held_out_dense();
        for p in [&emb_out, &part_out] {
            let r = check::store(&read(p)?, input.interning.len(), DIM).and_then(|s| {
                check::ranking(
                    &s,
                    &positives,
                    &input.all_edges,
                    &input.interning.file_id,
                    self.args.seed,
                )
            });
            self.ops.incorrect("traced embed output", r.map(|_| ()));
        }
        let delta = input
            .delta
            .as_ref()
            .expect("traced set-up builds the delta");
        let r = check::store(&read(&upd_out)?, delta.interning.len(), DIM).and_then(|s| {
            check::untouched_rows(&model, &s, &delta.touched)?;
            check::saved_graph(
                &read_text(&upd_graph)?,
                delta.interning.len(),
                &delta.edited_dense(),
            )
        });
        self.ops.incorrect("traced update output", r);

        // Socket round trips of the same queries, against `gosh serve`.
        let server = self.gosh.spawn_server(&input.model_store())?;
        let mut client =
            gosh_core::serve::ServeClient::connect(&server.addr).map_err(|e| e.to_string())?;
        let mut overhead_ms = Vec::new();
        for (i, &v) in queries.ids.iter().enumerate() {
            for (nprobe, local) in [(0, inproc.exact_ms[i]), (serve::NPROBE, inproc.ivf_ms[i])] {
                let t0 = Instant::now();
                client
                    .query(model.row(v as usize), DIM, serve::K, nprobe)
                    .map_err(|e| e.to_string())?;
                overhead_ms.push(t0.elapsed().as_secs_f64() * 1e3 - local);
            }
        }
        client.shutdown().map_err(|e| e.to_string())?;
        server.wait()?;

        // Tracing overhead: this workload's shadow again, spans off.
        let root = self.args.workload.name();
        let mut off = Tracer::new(false);
        let t0 = Instant::now();
        match self.args.workload {
            Workload::Embed | Workload::EmbedPartitioned => {
                let mb = self.args.workload.device_mb();
                trace::embed_pass(&mut off, root, input, mb, t, EPOCHS, &emb_out)?;
            }
            Workload::Update => {
                trace::update_pass(&mut off, input, t, EPOCHS, &upd_out, &upd_graph)?
            }
            Workload::Serve => {
                trace::serve_pass(&mut off, &input.model_store(), &queries, t, serve::BATCHES)?;
            }
        }
        let untraced_s = t0.elapsed().as_secs_f64();
        let traced_s = tr.secs(root, root);
        let overhead_pct = (traced_s - untraced_s) / untraced_s * 100.0;
        // What the traced layers leave out of the command's wall-clock:
        // process start, argument parsing, the `.emb` text writer, and
        // for `serve` the bind and the first round trip.
        let unattributed_s = match self.args.workload {
            Workload::Serve => {
                let starts: Vec<f64> = samples.serve.iter().map(|r| r.start_s).collect();
                median(&starts)
                    - tr.secs("serve", "core.store.open")
                    - tr.secs("serve", "core.serve.ivf_build")
            }
            _ => median(&samples.op_s) - traced_s,
        };

        self.parity(input)?;
        self.write_trace(&tr)?;
        Ok(layer_metrics(
            &tr,
            &overhead_ms,
            overhead_pct,
            unattributed_s,
        ))
    }

    /// The traced shadows drive the commands' functions in the commands'
    /// order. At one thread `gosh update` is deterministic, so its store
    /// must match the shadow's byte for byte. The emulator's warps race
    /// at any thread count, so for `gosh embed` the depth and the
    /// per-level backends it prints must match the shadow's; the epoch
    /// schedule is a function of the depth.
    fn parity(&mut self, input: &Input) -> Result<(), String> {
        let w = self.work.clone();
        let mut off = Tracer::new(false);
        let (cmd_out, shadow_out) = (w.join("par-cmd.emb"), w.join("par-shadow.embin"));
        let (cmd_graph, shadow_graph) = (w.join("par-cmd.txt"), w.join("par-shadow.txt"));
        let cmd = self.update_cmd(input, &input.delta_path, &cmd_out, &cmd_graph, 1)?;
        self.gosh.run_quiet(&cmd)?;
        trace::update_pass(&mut off, input, 1, EPOCHS, &shadow_out, &shadow_graph)?;
        let same = read(&cmd_out.with_extension("embin"))? == read(&shadow_out)?;
        self.ops.incorrect(
            "parity",
            if same {
                Ok(())
            } else {
                Err("one-thread update: shadow store differs from the command's".into())
            },
        );
        for mb in [DEFAULT_DEVICE_MB, SMALL_DEVICE_MB] {
            let out = w.join("par-embed.emb");
            let cmd = self.embed_cmd(input, &out, mb, 1, PARITY_EPOCHS)?;
            let stdout = self.gosh.run_quiet(&cmd)?;
            let shadow =
                trace::embed_pass(&mut off, "parity", input, mb, 1, PARITY_EPOCHS, &shadow_out)?;
            let count =
                |k: gosh_core::BackendKind| shadow.backends.iter().filter(|&&b| b == k).count();
            let mine = (
                shadow.backends.len(),
                count(gosh_core::BackendKind::GpuPartitioned),
                count(gosh_core::BackendKind::CpuHogwild),
            );
            let theirs = command_levels(&stdout);
            self.ops.incorrect(
                "parity",
                if theirs == Some(mine) {
                    Ok(())
                } else {
                    Err(format!(
                        "{mb} MB device: command levels {theirs:?}, shadow {mine:?}"
                    ))
                },
            );
        }
        Ok(())
    }

    fn write_trace(&self, tr: &Tracer) -> Result<(), String> {
        let dir = self.work.parent().expect("work dir has a parent");
        let path = dir.join(format!(
            "trace-{}-{}.json",
            self.args.workload.name(),
            self.args.seed
        ));
        std::fs::write(&path, tr.to_json()).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// The per-layer metrics, read off the spans. The pass each comes from
/// is named in the README.
fn layer_metrics(
    tr: &Tracer,
    overhead_ms: &[f64],
    overhead_pct: f64,
    unattributed_s: f64,
) -> Vec<Metric> {
    use gosh_core::BackendKind::*;
    let levels = |root: &str, want: Option<gosh_core::BackendKind>, finest: Option<bool>| -> f64 {
        tr.within(root, "core.train.level")
            .filter(|s| want.is_none_or(|k| s.label == format!("{k:?}")))
            .filter(|s| {
                let level = s
                    .counters
                    .iter()
                    .find(|c| c.0 == "level")
                    .map_or(0.0, |c| c.1);
                finest.is_none_or(|f| (level == 0.0) == f)
            })
            .map(|s| s.dur_s)
            .sum()
    };
    let ingest_s = tr.secs("embed", "graph.ingest");
    let hierarchy_s = tr.secs("embed", "coarsen.hierarchy");
    let train_s = levels("embed", None, None);
    let gpu = |key: &str| {
        tr.counter("embed", "gpu.device", key) + tr.counter("embed-partitioned", "gpu.device", key)
    };
    let large = |key: &str| tr.counter("embed-partitioned", "core.large", key);
    let per_query = |name: &str| {
        median(
            &tr.within("serve", name)
                .map(|s| s.dur_s * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    vec![
        ("graph.ingest_s", ingest_s, "s"),
        (
            "graph.ingest_mb_per_s",
            tr.counter("embed", "graph.ingest", "bytes") / 1e6 / ingest_s,
            "MB/s",
        ),
        (
            "graph.delta_s",
            tr.secs("update", "graph.delta.load") + tr.secs("update", "graph.delta.apply"),
            "s",
        ),
        ("coarsen.hierarchy_s", hierarchy_s, "s"),
        (
            "coarsen.vertices_per_s",
            tr.counter("embed", "coarsen.hierarchy", "collapsed") / hierarchy_s,
            "1/s",
        ),
        ("coarsen.repair_s", tr.secs("update", "coarsen.repair"), "s"),
        (
            "coarsen.repaired_levels",
            tr.counter("update", "coarsen.repair", "repaired_levels"),
            "count",
        ),
        ("core.train_s", train_s, "s"),
        (
            "core.train.updates_per_s",
            tr.counter("embed", "core.train.level", "updates") / train_s,
            "1/s",
        ),
        (
            "core.train.finest_s",
            levels("embed", None, Some(true)),
            "s",
        ),
        (
            "core.train.coarse_s",
            levels("embed", None, Some(false)),
            "s",
        ),
        (
            "core.train.gpu_in_memory_s",
            levels("embed", Some(GpuInMemory), None),
            "s",
        ),
        (
            "core.train.gpu_partitioned_s",
            levels("embed-partitioned", Some(GpuPartitioned), None),
            "s",
        ),
        ("core.expand_s", tr.secs("embed", "core.expand"), "s"),
        ("gpu.kernels", gpu("kernels"), "count"),
        ("gpu.modeled_s", gpu("modeled_s"), "s"),
        ("gpu.h2d_bytes", gpu("h2d_bytes"), "bytes"),
        ("gpu.d2h_bytes", gpu("d2h_bytes"), "bytes"),
        ("core.large.loads", large("loads"), "count"),
        ("core.large.evictions", large("evictions"), "count"),
        (
            "core.large.transfer_stall_s",
            large("transfer_stall_s"),
            "s",
        ),
        ("core.large.pool_stall_s", large("pool_stall_s"), "s"),
        (
            "core.warm.train_s",
            tr.secs("update", "core.warm.train"),
            "s",
        ),
        (
            "core.warm.trained_sources",
            tr.counter("update", "core.warm.train", "trained_sources"),
            "count",
        ),
        (
            "core.store.write_s",
            tr.secs("embed", "core.store.write"),
            "s",
        ),
        (
            "core.store.open_s",
            tr.secs("serve", "core.store.open"),
            "s",
        ),
        (
            "core.serve.ivf_build_s",
            tr.secs("serve", "core.serve.ivf_build"),
            "s",
        ),
        (
            "core.serve.exact_search_ms",
            per_query("core.serve.exact"),
            "ms",
        ),
        (
            "core.serve.ivf_search_ms",
            per_query("core.serve.ivf"),
            "ms",
        ),
        (
            "core.serve.batch_search_s",
            tr.secs("serve", "core.serve.batch"),
            "s",
        ),
        ("runtime.transport.overhead_ms", median(overhead_ms), "ms"),
        ("trace.overhead_pct", overhead_pct, "%"),
        ("trace.unattributed_s", unattributed_s, "s"),
    ]
}

/// Logical cores, SIMD level, compiler and commit of this run.
fn host_record() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The kernel level the program's own runtime dispatch picks.
    let simd = if gosh_core::simd::avx2_available() {
        "avx2"
    } else {
        "scalar"
    };
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    format!(
        "{{\"logical_cores\": {cores}, \"simd\": \"{simd}\", \"rustc\": \"{rustc}\", \"git_sha\": \"{}\"}}",
        git_sha().unwrap_or_else(|| "none".into())
    )
}

/// The commit checked out, read from `.git/` (no git process).
fn git_sha() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let gosh = Gosh {
        bin: args.gosh.clone(),
        threads,
        measure: args.measure.clone(),
        python: args.python.clone(),
    };
    let work =
        PathBuf::from(".perfbench").join(format!("run-{}-{}", args.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    println!("host: {}", host_record());
    let mut bench = Bench {
        gosh,
        args,
        work: work.clone(),
        ops: Ops::default(),
    };
    let result = bench.measure();
    let _ = std::fs::remove_dir_all(&work);
    let metrics = result?;

    let ops = &bench.ops;
    if let Some(known) = &ops.known {
        println!("known fault (counted as failed): {known}");
    }
    for e in &ops.errors {
        println!("incorrect: {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    if let Some((name, ..)) = metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.errors.is_empty(),
        ops.attempted,
        ops.failed,
        body.join(", ")
    );
    Ok(())
}

impl Bench {
    fn measure(&mut self) -> Result<Vec<Metric>, String> {
        let needs = match (self.args.trace, self.args.workload) {
            (false, Workload::Embed | Workload::EmbedPartitioned) => Needs::Graph,
            _ => Needs::Model,
        };
        let (input, setup_s) = self.setup(needs)?;
        let samples = self.rounds(&input)?;
        if self.args.trace {
            return self.traced(&input, &samples);
        }
        let s = &samples;
        let mut summary = vec![format!("{} rounds", s.peak_rss_mb.len())];
        match self.args.workload {
            Workload::Serve => {
                let pool = |f: fn(&serve::Round) -> &Vec<f64>| {
                    s.serve
                        .iter()
                        .flat_map(|r| f(r).iter().copied())
                        .collect::<Vec<_>>()
                };
                let (exact, ivf) = (pool(|r| &r.exact_ms), pool(|r| &r.ivf_ms));
                let starts: Vec<f64> = s.serve.iter().map(|r| r.start_s).collect();
                let batch_ms = pool(|r| &r.batch_ms);
                summary.extend([
                    format!("serve_start_s {:.4} s", median(&starts)),
                    format!(
                        "query_exact_p50_ms {:.4} ms, query_exact_p99_ms {:.4} ms ({} queries)",
                        median(&exact),
                        quantile(&exact, 0.99),
                        exact.len()
                    ),
                    format!(
                        "query_ivf_p50_ms {:.4} ms, query_ivf_p99_ms {:.4} ms ({} queries)",
                        median(&ivf),
                        quantile(&ivf, 0.99),
                        ivf.len()
                    ),
                    format!(
                        "query_batch_qps {:.1} queries/s (median batch of {})",
                        serve::BATCH as f64 / median(&batch_ms) * 1e3,
                        serve::BATCH
                    ),
                    format!("recall@{} {:.4}", serve::K, median(&s.quality)),
                ]);
            }
            Workload::Update => summary.extend([
                format!("update_s {:.4} s", median(&s.op_s)),
                format!("auc {:.4}", median(&s.quality)),
                format!(
                    "repair fell back to recoarsening in {} of {} rounds",
                    s.fell_back,
                    s.op_s.len()
                ),
                format!(
                    "untouched rows: smallest cosine to the old row {:.4}",
                    s.untouched_cos
                ),
            ]),
            _ => summary.extend([
                format!("embed_s {:.4} s", median(&s.op_s)),
                format!("auc {:.4}", median(&s.quality)),
            ]),
        }
        summary.push(format!("cpu_s {:.4} s", median(&s.cpu_s)));
        summary.push(format!("peak_rss_mb {:.1} MB", median(&s.peak_rss_mb)));
        if let Some(steal) = s.steal {
            summary.push(format!("host steal {:.1}% of CPU time", 100.0 * steal));
        }
        println!("summary: {}", summary.join("; "));
        Ok(vec![
            ("setup_s", median(&setup_s), "s"),
            ("cpu_s", median(&s.cpu_s), "s"),
            ("peak_rss_mb", median(&s.peak_rss_mb), "MB"),
            ("quality", median(&s.quality), "ratio"),
        ])
    }
}
