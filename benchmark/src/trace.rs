//! The traced run: spans recorded around every call the benchmark makes
//! into a layer, a replay that times each drained request's layer calls
//! one by one, and counter snapshots from the `nfm_obs` registry.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use nfm_core::ood::DriftMonitor;
use nfm_core::pipeline::{FmBackbone, FmClassifier, TaskHead};
use nfm_model::context::flow_context;
use nfm_model::pretrain::encode_context;
use nfm_model::tokenize::Tokenizer;
use nfm_net::capture::TracePacket;
use nfm_net::flow::FlowTable;
use nfm_tensor::matrix::Matrix;
use nfm_tensor::scratch::ScratchArena;

use crate::{ratio, Ctx, Report};

struct SpanRec {
    name: &'static str,
    parent: usize,
    req: Option<u64>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. Off, every call runs its closure and records
/// nothing, so the untraced run pays one branch per call site.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; children opened before [`Tracer::close`] name it as
    /// their parent. Returns a handle (0 when tracing is off).
    pub fn open(&mut self, name: &'static str, req: Option<u64>) -> usize {
        if !self.on {
            return 0;
        }
        let parent = self.stack.last().copied().unwrap_or(0);
        let start_ns = self.now();
        self.spans.push(SpanRec { name, parent, req, start_ns, end_ns: start_ns });
        let id = self.spans.len();
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        if id == 0 {
            return;
        }
        let end = self.now();
        self.spans[id - 1].end_ns = end;
        if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
            self.stack.truncate(pos);
        }
    }

    /// Run `f` inside a span and return its wall time in ns, whether or not
    /// spans are being recorded.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        req: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(name, req);
        let t = Instant::now();
        let r = std::hint::black_box(f());
        let ns = t.elapsed().as_nanos() as u64;
        self.close(id);
        (r, ns)
    }

    /// Report the span count and write the spans to
    /// `.bench_out/trace-<workload>-seed<N>.jsonl`.
    pub fn save(&self, ctx: &Ctx, rep: &mut Report) {
        rep.set("trace.spans", self.spans.len() as f64);
        let path = ctx.out_dir().join(format!("trace-{}-seed{}.jsonl", ctx.workload, ctx.seed));
        match self.write_jsonl(&path) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => rep.failures.push(format!("cannot write {}: {e}", path.display())),
        }
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let req = s.req.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"req\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                i + 1,
                s.parent,
                s.name,
                req,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Counter values from the global `nfm_obs` registry.
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    pub fn now() -> Counters {
        Counters(
            nfm_obs::global()
                .snapshot()
                .into_iter()
                .filter_map(|m| match m.value {
                    nfm_obs::MetricValue::Counter(v) => Some((m.name, v)),
                    _ => None,
                })
                .collect(),
        )
    }

    /// Counter increments since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(self.0.iter().map(|(&k, &v)| (k, v.saturating_sub(earlier.get(k)))).collect())
    }

    /// A counter's value; 0 when nothing has registered it.
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

/// Tensor-layer metrics from counter increments over a run that did
/// `units` of work (requests, or optimizer steps) in `wall_s` seconds.
pub fn report_counters(rep: &mut Report, c: &Counters, units: f64, wall_s: f64) {
    let macs = c.get("tensor.matmul.macs") as f64;
    let calls = c.get("tensor.matmul.calls")
        + c.get("tensor.matmul_tn.calls")
        + c.get("tensor.matmul_nt.calls");
    let dispatches = c.get("pool.par_map.calls") + c.get("pool.par_chunks.calls");
    let arena =
        ["tensor.arena.reuse", "tensor.arena.alloc", "tensor.arena.grow"].map(|n| c.get(n) as f64);
    rep.set("tensor.matmul_macs_per_unit", ratio(macs, units));
    rep.set("tensor.matmul_calls_per_unit", ratio(calls as f64, units));
    rep.set("tensor.gmacs_per_s", ratio(macs / 1e9, wall_s));
    rep.set("pool.dispatches_per_unit", ratio(dispatches as f64, units));
    rep.set("arena.reuse_frac", ratio(arena[0], arena.iter().sum()));
}

/// Encoder rows per forward call on the serving path: rows per shared
/// fan-out chunk, else requests per micro-batch, else 1 (the engine's
/// unbatched path runs one forward per request and counts no batches).
pub fn rows_per_call(c: &Counters) -> f64 {
    let per = |rows: &str, calls: &str| ratio(c.get(rows) as f64, c.get(calls) as f64);
    if c.get("serve.task.batches") > 0 {
        per("serve.task.encoder_rows", "serve.task.batches")
    } else if c.get("serve.batch.count") > 0 {
        per("serve.batch.requests", "serve.batch.count")
    } else {
        1.0
    }
}

/// Check that the layer decomposition does not claim more time than the
/// calls it decomposes took: replayed layer times may exceed the measured
/// time by at most 10%, or the decomposition double-counts.
pub fn reconcile(rep: &mut Report, layers_ns: f64, measured_ns: f64) {
    let coverage = ratio(layers_ns, measured_ns);
    rep.set("trace.coverage", coverage);
    rep.check(coverage <= 1.10, || {
        format!(
            "layer replay sums to {coverage:.3}x the measured time (over 1.10x: double counting)"
        )
    });
}

/// Matmul kernel calls so far, all three shapes.
pub fn matmul_calls() -> u64 {
    ["tensor.matmul.calls", "tensor.matmul_tn.calls", "tensor.matmul_nt.calls"]
        .into_iter()
        .map(|name| nfm_obs::global().counter(name, nfm_obs::Unit::Count).get())
        .sum()
}

/// Wall time and work per layer, summed over every replayed call.
#[derive(Default)]
pub struct Layers {
    pub pcap_ns: u64,
    pub pcap_pkts: u64,
    pub parse_ns: u64,
    pub parse_pkts: u64,
    pub malformed: u64,
    pub push_ns: u64,
    pub push_pkts: u64,
    pub tokenize_ns: u64,
    pub flows: u64,
    pub tokens: u64,
    pub encode_ns: u64,
    pub ids: u64,
    pub unk: u64,
    pub encoder_ns: u64,
    pub encoder_rows: u64,
    pub encoder_macs: u64,
    pub head_ns: u64,
    pub head_rows: u64,
    pub drift_ns: u64,
    pub drift_calls: u64,
}

impl Layers {
    /// Summed layer time: what the decomposition says the measured calls
    /// spent. The measured time minus this is the residual.
    pub fn total_ns(&self) -> u64 {
        self.pcap_ns
            + self.parse_ns
            + self.push_ns
            + self.tokenize_ns
            + self.encode_ns
            + self.encoder_ns
            + self.head_ns
            + self.drift_ns
    }

    /// Parse `packets` (`TracePacket::parse`) and assemble the parseable
    /// ones into flows (`FlowTable::push`), timing each layer.
    pub fn ingest(
        &mut self,
        tr: &mut Tracer,
        req: Option<u64>,
        packets: &[TracePacket],
    ) -> FlowTable {
        let (parsed, ns) = tr.timed("TracePacket::parse", req, || {
            packets.iter().map(TracePacket::parse).collect::<Vec<_>>()
        });
        self.parse_ns += ns;
        self.parse_pkts += packets.len() as u64;
        self.malformed += parsed.iter().filter(|p| p.is_err()).count() as u64;
        let (table, ns) = tr.timed("FlowTable::push", req, || {
            let mut table = FlowTable::new();
            for (i, (tp, p)) in packets.iter().zip(&parsed).enumerate() {
                if let Ok(p) = p {
                    table.push(i, tp.ts_us, p);
                }
            }
            table
        });
        self.push_ns += ns;
        self.push_pkts += parsed.iter().filter(|p| p.is_ok()).count() as u64;
        table
    }

    /// The per-layer metrics the replay measures.
    pub fn report(&self, rep: &mut Report) {
        let r = |a: u64, b: u64| ratio(a as f64, b as f64);
        rep.set("net.pcap_read_ns_per_pkt", r(self.pcap_ns, self.pcap_pkts));
        rep.set("net.parse_ns_per_pkt", r(self.parse_ns, self.parse_pkts));
        rep.set("net.flow_assembly_ns_per_pkt", r(self.push_ns, self.push_pkts));
        rep.set("net.malformed_frac", r(self.malformed, self.parse_pkts));
        rep.set("tokenize.ns_per_flow", r(self.tokenize_ns, self.flows));
        rep.set("tokenize.tokens_per_flow", r(self.tokens, self.flows));
        rep.set("vocab.encode_ns_per_flow", r(self.encode_ns, self.encoder_rows));
        rep.set("vocab.unk_frac", r(self.unk, self.ids));
        rep.set("encoder.ns_per_row", r(self.encoder_ns, self.encoder_rows));
        rep.set("encoder.gmacs_per_s", r(self.encoder_macs, self.encoder_ns));
        rep.set("encoder.macs_per_row", r(self.encoder_macs, self.encoder_rows));
        rep.set("heads.ns_per_row", r(self.head_ns, self.head_rows));
        rep.set("drift.observe_ns", r(self.drift_ns, self.drift_calls));
    }

    /// Tokenize one flow (`flow_context`, which parses each packet again).
    pub fn tokenize(
        &mut self,
        tr: &mut Tracer,
        req: Option<u64>,
        packets: &[TracePacket],
        tokenizer: &dyn Tokenizer,
        max_tokens: usize,
    ) -> Vec<String> {
        let (tokens, ns) =
            tr.timed("flow_context", req, || flow_context(packets, tokenizer, max_tokens));
        self.tokenize_ns += ns;
        self.flows += 1;
        self.tokens += tokens.len() as u64;
        tokens
    }
}

/// The model half of the layer replay: the shared backbone, each lane's
/// head and classifier, and the drift monitor each lane was armed with.
pub struct Replayer {
    backbone: FmBackbone,
    heads: Vec<TaskHead>,
    lanes: Vec<FmClassifier>,
    monitors: Vec<DriftMonitor>,
    /// Replay the encoder as the shared packed batch path does
    /// (`MultiTaskServer`), or as a `ServeEngine` does, one request at a
    /// time.
    packed: bool,
    arena: ScratchArena,
    forward_calls: Option<u64>,
}

impl Replayer {
    pub fn new(
        backbone: &FmBackbone,
        heads: &[TaskHead],
        monitors: &[DriftMonitor],
        packed: bool,
    ) -> Replayer {
        Replayer {
            backbone: backbone.clone(),
            heads: heads.to_vec(),
            lanes: heads.iter().map(|h| backbone.attach(h)).collect(),
            monitors: monitors.to_vec(),
            packed,
            arena: ScratchArena::new(),
            forward_calls: None,
        }
    }

    /// Matmul calls one encoder forward makes (`FmClassifier::embed`):
    /// the unit that turns a count of extra matmul calls into encoder
    /// forwards. The count does not depend on the sequence, so it is
    /// measured once.
    pub fn forward_calls(&mut self, tokens: &[String]) -> u64 {
        let clf = &self.lanes[0];
        *self.forward_calls.get_or_insert_with(|| {
            let before = matmul_calls();
            std::hint::black_box(clf.embed(tokens));
            matmul_calls() - before
        })
    }

    /// Replay one answered request: `encode_context`; the encoder, as
    /// `FmBackbone::pooled_batch_within` on a batch of one (packed) or
    /// `FmClassifier::embed`; and for every lane in `lanes` its
    /// `TaskHead::logits_batch` plus, when the lane had drift armed,
    /// `DriftMonitor::observe`.
    pub fn infer(
        &mut self,
        l: &mut Layers,
        tr: &mut Tracer,
        req: Option<u64>,
        tokens: &[String],
        lanes: u64,
    ) {
        let vocab = &self.backbone.vocab;
        let (ids, encode_ns) = tr
            .timed("encode_context", req, || encode_context(vocab, tokens, self.backbone.max_len));
        l.encode_ns += encode_ns;
        l.ids += ids.len() as u64;
        l.unk += ids.iter().filter(|&&id| id == vocab.unk_id()).count() as u64;
        let (pooled, ns) = if self.packed {
            let (pb, ns) = tr.timed("FmBackbone::pooled_batch_within", req, || {
                self.backbone.pooled_batch_within(&[tokens], u64::MAX, &mut self.arena)
            });
            (pb.pooled, ns)
        } else {
            let clf = &self.lanes[0];
            let (embedding, ns) = tr.timed("FmClassifier::embed", req, || clf.embed(tokens));
            (Matrix::from_vec(1, embedding.len(), embedding), ns)
        };
        // Both encoder calls encode the tokens themselves; that share is the
        // encode layer timed above.
        l.encoder_ns += ns.saturating_sub(encode_ns);
        l.encoder_rows += 1;
        l.encoder_macs += self.backbone.encoder_cost(tokens.len());
        for (k, head) in self.heads.iter().enumerate() {
            if lanes & (1u64 << k) == 0 {
                continue;
            }
            let (logits, ns) =
                tr.timed("TaskHead::logits_batch", req, || head.logits_batch(&pooled));
            l.head_ns += ns;
            l.head_rows += 1;
            if let Some(monitor) = self.monitors.get_mut(k) {
                let clf = &self.lanes[k];
                let (_, ns) = tr.timed("DriftMonitor::observe", req, || {
                    monitor.observe(clf, tokens, logits.row(0))
                });
                l.drift_ns += ns;
                l.drift_calls += 1;
            }
        }
        if self.packed {
            self.arena.put(pooled);
        }
    }
}
