//! Turning a measured window, the program's counters and the ladder into
//! named metrics.

use std::collections::BTreeMap;

use rstore::Cluster;
use sim::OpSummary;

use crate::ladder::Ladder;
use crate::stats::{self, Percentile, Sample};
use crate::window::{CtrlLatency, SetupTimes, Span, Window};

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Sample count and caveats, for the human-readable line.
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// Latency statistics of one op kind (failed ops included, ranked last).
#[derive(Clone, Debug, PartialEq)]
pub struct KindStats {
    /// Ops of this kind.
    pub n: usize,
    /// Mean virtual latency, ns (a failed op counts the time it took to
    /// fail).
    pub mean_ns: f64,
    /// Nearest-rank p50, p90, p99 and p99.9.
    pub pct: [Option<Percentile>; 4],
}

impl KindStats {
    fn of(mut samples: Vec<Sample>) -> KindStats {
        stats::sort(&mut samples);
        let n = samples.len();
        KindStats {
            n,
            mean_ns: samples.iter().map(|s| s.ns as f64).sum::<f64>() / n.max(1) as f64,
            pct: [50.0, 90.0, 99.0, 99.9].map(|p| stats::percentile(&samples, p)),
        }
    }

    fn p99(&self) -> Option<Percentile> {
        self.pct[2]
    }

    /// One line: count, mean and every percentile with its caveats.
    pub fn describe(&self, kind: &str) -> String {
        let mut s = format!("  {kind}: n={} mean {:.3} us", self.n, self.mean_ns / 1e3);
        for p in self.pct.iter().flatten() {
            s.push_str(&format!("; p{} {}", p.p, p.describe()));
        }
        s
    }
}

/// The virtual-time results of a window: deterministic for a fixed seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Virtual {
    /// Ops attempted in the window.
    pub attempted: u64,
    /// Ops that returned a structured error.
    pub failed: u64,
    /// Virtual window length, ns.
    pub v_ns: u64,
    /// Payload bytes moved by successful ops.
    pub payload_bytes: u64,
    /// The read kind (`get`, or a region read batch).
    pub read: KindStats,
    /// The write kind (`put`, or a region stripe write).
    pub write: KindStats,
    /// Failures by `(kind, error variant)`.
    pub failures: BTreeMap<(&'static str, &'static str), u64>,
}

impl Virtual {
    /// Derives the virtual-time results from a window's spans.
    pub fn of(w: &Window) -> Virtual {
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        let mut failures = BTreeMap::new();
        let mut payload_bytes = 0;
        for s in &w.spans {
            let sample = Sample {
                ns: s.ns(),
                failed: s.err.is_some(),
            };
            if s.kind.is_read() {
                reads.push(sample);
            } else {
                writes.push(sample);
            }
            match s.err {
                Some(variant) => *failures.entry((s.kind.name(), variant)).or_insert(0) += 1,
                None => payload_bytes += s.bytes as u64,
            }
        }
        Virtual {
            attempted: w.spans.len() as u64,
            failed: failures.values().sum(),
            v_ns: w.v_ns,
            payload_bytes,
            read: KindStats::of(reads),
            write: KindStats::of(writes),
            failures,
        }
    }

    /// Ops that completed without error.
    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Structured errors ÷ ops attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// CPU ns the reference work takes on the machine `host_us_per_op` is
/// scaled to (about what it takes on a 2-vCPU Xeon VM).
pub const REF_NOMINAL_NS: f64 = 20e6;

/// Host cost of a window.
pub struct HostCost {
    /// Thread CPU µs per op over the whole window, as measured.
    pub raw_us: f64,
    /// µs per op scaled to a machine on which the reference work takes
    /// [`REF_NOMINAL_NS`]: each slice's CPU time is weighed against the
    /// reference runs on either side of it, because a shared VM's
    /// speed drifts by tens of percent within and between runs.
    pub scaled_us: f64,
    /// Mean CPU ns of the reference runs interleaved with the window.
    pub ref_ns: f64,
    /// Reference runs taken.
    pub refs: usize,
}

impl HostCost {
    /// Measures `w`.
    pub fn of(w: &Window) -> HostCost {
        let mut cpu = 0.0;
        let mut ops = 0.0;
        let mut ref_weighted = 0.0;
        for m in w.marks.windows(2) {
            let slice_ops = (m[1].ops - m[0].ops) as f64;
            cpu += m[0].cpu_until(&m[1]) as f64;
            ops += slice_ops;
            ref_weighted += slice_ops * (m[0].ref_ns + m[1].ref_ns) as f64 / 2.0;
        }
        HostCost {
            raw_us: cpu / ops.max(1.0) / 1e3,
            scaled_us: cpu / ref_weighted.max(1.0) * REF_NOMINAL_NS / 1e3,
            ref_ns: w.marks.iter().map(|m| m.ref_ns as f64).sum::<f64>() / w.marks.len() as f64,
            refs: w.marks.len(),
        }
    }
}

/// Scaled host µs per op of a window (see [`HostCost::scaled_us`]).
pub fn host_us_per_op(w: &Window) -> f64 {
    HostCost::of(w).scaled_us
}

fn p99_metric(name: &'static str, k: &KindStats) -> Metric {
    match k.p99() {
        Some(p) => metric(name, p.us(), "us", p.describe()),
        None => metric(name, 0.0, "us", "no samples"),
    }
}

fn mean_metric(name: &'static str, k: &KindStats) -> Metric {
    metric(name, k.mean_ns / 1e3, "us", format!("n={}", k.n))
}

/// Every end-to-end metric, in `BENCHMARK.json` order.
///
/// `setups` holds each set-up's `(scaled, raw)` seconds.
pub fn end_to_end(w: &Window, v: &Virtual, setups: &[(f64, f64)], peak_rss_kb: u64) -> Vec<Metric> {
    let scaled: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let raw: Vec<f64> = setups.iter().map(|s| s.1).collect();
    let host = HostCost::of(w);
    let vsec = v.v_ns as f64 / 1e9;
    vec![
        metric(
            "kops_per_vsec",
            v.succeeded() as f64 / vsec / 1e3,
            "kops/s",
            format!("n={} ops over {vsec:.6} virtual s", v.succeeded()),
        ),
        metric(
            "gbps",
            v.payload_bytes as f64 * 8.0 / v.v_ns as f64,
            "Gb/s",
            format!("n={} payload bytes", v.payload_bytes),
        ),
        mean_metric("read_mean_us", &v.read),
        p99_metric("read_p99_us", &v.read),
        mean_metric("write_mean_us", &v.write),
        p99_metric("write_p99_us", &v.write),
        metric(
            "host_us_per_op",
            host.scaled_us,
            "us",
            format!(
                "raw {:.3} us/op; reference {:.3} ms (mean of n={})",
                host.raw_us,
                host.ref_ns / 1e6,
                host.refs
            ),
        ),
        metric(
            "allocs_per_op",
            w.allocs as f64 / v.attempted as f64,
            "count",
            format!("n={} allocations over {} ops", w.allocs, v.attempted),
        ),
        metric(
            "peak_rss_mb",
            peak_rss_kb as f64 / 1024.0,
            "MiB",
            "VmHWM after the measured window",
        ),
        metric(
            "setup_s",
            stats::median(&scaled),
            "s",
            format!(
                "median of n={} set-ups: scaled {scaled:.3?}, raw {raw:.3?}",
                setups.len()
            ),
        ),
    ]
}

/// The program's own counters and gauges over the window (the registry
/// is reset when the window starts).
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// `fabric.tx_bytes`.
    pub wire_bytes: u64,
    /// Busiest link direction of any server or client, % of the window.
    pub busy_max_pct: f64,
    /// Mean over server and client link directions, % of the window.
    pub busy_mean_pct: f64,
    /// Sum of `fabric.dropped.*`.
    pub dropped: u64,
    /// `rdma.doorbells`.
    pub doorbells: u64,
    /// Sum of every QP's `posted` work requests.
    pub wrs: u64,
    /// `kv.index.hit`, `kv.index.miss`, `kv.index.stale`.
    pub index: (u64, u64, u64),
    /// `kv.lock.break`.
    pub lock_breaks: u64,
    /// The per-op ledger rows (empty unless the ledger was on).
    pub ops: Vec<OpSummary>,
}

impl Counters {
    /// Reads the counters after a window of `v_ns` virtual ns.
    pub fn read(cluster: &Cluster, v_ns: u64) -> Counters {
        let m = cluster.fabric.metrics();
        let names = m.counter_names();
        let sum = |pred: &dyn Fn(&str) -> bool| -> u64 {
            names.iter().filter(|n| pred(n)).map(|n| m.counter(n)).sum()
        };
        let nodes = cluster
            .servers
            .iter()
            .map(|s| s.node())
            .chain(cluster.client_devs.iter().map(|d| d.node()));
        let mut busy = Vec::new();
        for node in nodes {
            for dir in ["tx", "rx"] {
                let ns = m.counter(&format!("fabric.link{}.{dir}_busy_ns", node.0));
                busy.push(ns as f64 / v_ns as f64 * 100.0);
            }
        }
        Counters {
            wire_bytes: m.counter("fabric.tx_bytes"),
            busy_max_pct: busy.iter().copied().fold(0.0, f64::max),
            busy_mean_pct: busy.iter().sum::<f64>() / busy.len().max(1) as f64,
            dropped: sum(&|n| n.starts_with("fabric.dropped.")),
            doorbells: m.counter("rdma.doorbells"),
            wrs: sum(&|n| n.starts_with("rdma.n") && n.contains(".qp") && n.ends_with(".posted")),
            index: (
                m.counter("kv.index.hit"),
                m.counter("kv.index.miss"),
                m.counter("kv.index.stale"),
            ),
            lock_breaks: m.counter("kv.lock.break"),
            ops: sim::ledger::summarize(m),
        }
    }

    fn op(&self, name: &str) -> Option<&OpSummary> {
        self.ops.iter().find(|s| s.op == name)
    }

    /// The ledger row of the read kind: `get`, or a region read batch.
    pub fn read_row(&self) -> Option<&OpSummary> {
        self.op("get").or_else(|| self.op("read_many"))
    }

    /// The ledger row of the write kind: `put`, or a region write.
    pub fn write_row(&self) -> Option<&OpSummary> {
        self.op("put").or_else(|| self.op("write"))
    }
}

/// Inputs to the per-layer metrics of a traced run.
pub struct Traced<'a> {
    /// Set-up phases of the untraced pass.
    pub setup: SetupTimes,
    /// The untraced window and its virtual results.
    pub plain: (&'a Window, &'a Virtual),
    /// The traced window.
    pub traced: &'a Window,
    /// Counters of the traced window.
    pub counters: &'a Counters,
    /// The isolation ladder.
    pub ladder: &'a Ladder,
}

const PHASES: [&str; 4] = ["post", "wire", "server", "client"];

fn phases(r: &OpSummary) -> [u64; 4] {
    [r.post_ns, r.wire_ns, r.server_ns, r.client_ns]
}

/// The ledger's four-way split of one op kind's virtual time, as shares
/// of the kind's summed latency.
fn split_pct(names: [&'static str; 4], row: Option<&OpSummary>) -> Vec<Metric> {
    let parts = row.map_or([0; 4], phases);
    let total = parts.iter().sum::<u64>().max(1) as f64;
    names
        .into_iter()
        .zip(parts)
        .map(|(name, ns)| {
            metric(
                name,
                ns as f64 / total * 100.0,
                "%",
                "share of the kind's ledger time",
            )
        })
        .collect()
}

fn count(name: &'static str, v: f64, note: impl Into<String>) -> Metric {
    metric(name, v, "count", note)
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer(t: &Traced) -> Vec<Metric> {
    let (plain_w, plain_v) = t.plain;
    let c = t.counters;
    let ops = plain_v.attempted as f64;
    let l = t.ladder;
    let rung = |what: &str| format!("ladder: {what}, median of batches");
    let read = c.read_row();
    let write = c.write_row();
    let ledger_n = |r: Option<&OpSummary>| format!("ledger, n={}", r.map_or(0, |r| r.count));
    let (hit, miss, stale) = c.index;
    let rdma = l.rdma_read4k.host_ns;
    let mut out = vec![
        metric("setup.boot_s", t.setup.boot_s, "s", "Cluster::boot"),
        metric(
            "setup.load_s",
            t.setup.load_s,
            "s",
            "create + fill + scripts",
        ),
        metric(
            "setup.open_s",
            t.setup.open_s,
            "s",
            "connect + open/map per client",
        ),
        metric("setup.warmup_s", t.setup.warmup_s, "s", "warm-up ops"),
        metric(
            "sim.task.host_ns",
            l.sim_task.host_ns,
            "ns",
            rung("spawn + sleep + join"),
        ),
        count("sim.task.allocs", l.sim_task.allocs, "ladder"),
        metric(
            "sim.rss_growth_kb_per_kop",
            plain_w.rss_growth_kb as f64 / (ops / 1e3),
            "KiB",
            format!(
                "untraced window, {} KiB over {ops} ops",
                plain_w.rss_growth_kb
            ),
        ),
        metric(
            "sim.trace_overhead_pct",
            (host_us_per_op(t.traced) / host_us_per_op(plain_w) - 1.0) * 100.0,
            "%",
            "traced vs untraced host_us_per_op",
        ),
        metric(
            "fabric.msg.host_ns",
            l.fabric_msg.host_ns,
            "ns",
            rung("send + receive"),
        ),
        count("fabric.msg.allocs", l.fabric_msg.allocs, "ladder"),
        metric(
            "fabric.link_busy_pct_max",
            c.busy_max_pct,
            "%",
            "busiest server/client link direction",
        ),
        metric(
            "fabric.link_busy_pct_mean",
            c.busy_mean_pct,
            "%",
            "mean over server/client link directions",
        ),
        metric(
            "fabric.wire_bytes_per_op",
            c.wire_bytes as f64 / ops,
            "B",
            "fabric.tx_bytes per op",
        ),
        count("fabric.dropped", c.dropped as f64, "fabric.dropped.*"),
        metric(
            "rdma.read4k.host_ns",
            rdma,
            "ns",
            rung("Qp::post_read + CQ"),
        ),
        count("rdma.read4k.allocs", l.rdma_read4k.allocs, "ladder"),
        count(
            "rdma.doorbells_per_op",
            c.doorbells as f64 / ops,
            "rdma.doorbells per op",
        ),
        count(
            "rdma.wrs_per_doorbell",
            c.wrs as f64 / c.doorbells.max(1) as f64,
            "QP posted WRs per doorbell",
        ),
        metric(
            "region.read_into.host_ns",
            l.region_read_into.host_ns,
            "ns",
            rung("Region::read_into 4 KiB"),
        ),
        count(
            "region.read_into.allocs",
            l.region_read_into.allocs,
            "ladder",
        ),
        metric(
            "kv.get.host_ns",
            l.kv_get.host_ns,
            "ns",
            rung("warm KvTable::get"),
        ),
        count("kv.get.allocs", l.kv_get.allocs, "ladder"),
        metric(
            "kv.put.host_ns",
            l.kv_put.host_ns,
            "ns",
            rung("warm KvTable::put"),
        ),
        count("kv.put.allocs", l.kv_put.allocs, "ladder"),
        metric(
            "kv.index.hit_ratio",
            hit as f64 / (hit + miss + stale).max(1) as f64,
            "ratio",
            format!("n={} lookups", hit + miss + stale),
        ),
        count("kv.lock_breaks", c.lock_breaks as f64, "kv.lock.break"),
        count(
            "ledger.read.rtts_p50",
            read.map_or(0, |r| r.rtts_p50) as f64,
            ledger_n(read),
        ),
        count(
            "ledger.read.rtts_p99",
            read.map_or(0, |r| r.rtts_p99) as f64,
            ledger_n(read),
        ),
        count(
            "ledger.read.doorbells_p50",
            read.map_or(0, |r| r.doorbells_p50) as f64,
            ledger_n(read),
        ),
        count(
            "ledger.write.rtts_p50",
            write.map_or(0, |r| r.rtts_p50) as f64,
            ledger_n(write),
        ),
        count(
            "ledger.write.rtts_p99",
            write.map_or(0, |r| r.rtts_p99) as f64,
            ledger_n(write),
        ),
        count(
            "ledger.write.retries_per_op",
            write.map_or(0.0, |r| r.retries as f64 / r.count.max(1) as f64),
            ledger_n(write),
        ),
    ];
    out.extend(split_pct(
        [
            "ledger.read.post_pct",
            "ledger.read.wire_pct",
            "ledger.read.server_pct",
            "ledger.read.client_pct",
        ],
        read,
    ));
    out.extend(split_pct(
        [
            "ledger.write.post_pct",
            "ledger.write.wire_pct",
            "ledger.write.server_pct",
            "ledger.write.client_pct",
        ],
        write,
    ));
    out.extend([
        metric(
            "error_rate",
            plain_v.error_rate(),
            "ratio",
            format!("{} of {} ops", plain_v.failed, plain_v.attempted),
        ),
        metric(
            "ladder.fabric.self_ns",
            l.fabric_msg.host_ns - l.sim_task.host_ns,
            "ns",
            "fabric rung - sim rung",
        ),
        metric(
            "ladder.rdma.self_ns",
            rdma - l.fabric_msg.host_ns,
            "ns",
            "rdma rung - fabric rung",
        ),
        metric(
            "ladder.region.self_ns",
            l.region_read_into.host_ns - rdma,
            "ns",
            "region rung - rdma rung",
        ),
        metric(
            "ladder.kv.get.self_ns",
            l.kv_get.host_ns - rdma,
            "ns",
            "get rung - rdma rung (a warm get is one READ)",
        ),
        metric(
            "ladder.kv.put.self_ns",
            l.kv_put.host_ns - 2.0 * rdma,
            "ns",
            "put rung - 2 x rdma rung (a warm put is CAS + WRITE)",
        ),
    ]);
    out
}

/// Virtual-time facts of a traced run that repeat exactly on every seed
/// (set-up control calls, the bare verb, the ledger's per-op ns split):
/// printed for reading, kept out of the JSON result.
pub fn virtual_constants(ctrl: CtrlLatency, l: &Ladder, c: &Counters) -> Vec<String> {
    let mut lines = vec![
        format!(
            "  ctrl.alloc_vus {:.3} us (KvTable::create or alloc)",
            ctrl.alloc_ns as f64 / 1e3
        ),
        format!(
            "  ctrl.map_vus {:.3} us (KvTable::open or map, median over clients)",
            ctrl.map_ns as f64 / 1e3
        ),
        format!(
            "  rdma.read4k.vus {:.3} us (bare 4 KiB READ)",
            l.rdma_read4k_vus
        ),
    ];
    for (kind, row) in [("read", c.read_row()), ("write", c.write_row())] {
        if let Some(r) = row {
            let per_op: Vec<String> = PHASES
                .iter()
                .zip(phases(r))
                .map(|(p, ns)| format!("{p} {:.1}", ns as f64 / r.count.max(1) as f64))
                .collect();
            lines.push(format!(
                "  ledger.{kind} ({}) vns per op: {}",
                r.op,
                per_op.join(", ")
            ));
        }
    }
    lines
}

/// Span file line: kind, client, virtual start/end, outcome.
pub fn span_line(s: &Span) -> String {
    format!(
        "{},{},{},{},{}",
        s.kind.name(),
        s.client,
        s.start_ns,
        s.end_ns,
        s.err.unwrap_or("ok")
    )
}

/// Renders `metrics` as the final JSON line.
pub fn json_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
