//! What every workload shares: op spans, the host-time progress marks of
//! the measured window, set-up timings, and the correctness tally.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use rstore::RStoreError;

use crate::host;

/// Op kinds. On the KV workloads the read kind is `get` and the write kind
/// is `put`; on region-stream they are a batched read and a 64 KiB write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `KvTable::get`.
    Get,
    /// `KvTable::put`.
    Put,
    /// `Region::read_into_many` of 16 × 4 KiB.
    Read,
    /// `Region::write_from` of one 64 KiB stripe.
    Write,
}

impl Kind {
    /// Name used in the span file and the failure table.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Get => "get",
            Kind::Put => "put",
            Kind::Read => "read",
            Kind::Write => "write",
        }
    }

    /// True for the kinds the `read_*` metrics describe.
    pub fn is_read(self) -> bool {
        matches!(self, Kind::Get | Kind::Read)
    }
}

/// One op as the benchmark saw it from outside the store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// What the op was.
    pub kind: Kind,
    /// The simulated client machine that issued it.
    pub client: u32,
    /// Virtual start, ns.
    pub start_ns: u64,
    /// Virtual end, ns.
    pub end_ns: u64,
    /// Payload bytes the op moves when it succeeds.
    pub bytes: u32,
    /// The structured error's variant, if the op failed.
    pub err: Option<&'static str>,
}

impl Span {
    /// Virtual latency, ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The variant name of a structured error, for per-variant failure counts.
pub fn variant(e: &RStoreError) -> &'static str {
    use rdma::CqStatus;
    match e {
        RStoreError::Rdma(_) => "rdma",
        RStoreError::NameExists(_) => "name_exists",
        RStoreError::NotFound(_) => "not_found",
        RStoreError::InsufficientCapacity { .. } => "insufficient_capacity",
        RStoreError::NotEnoughServers { .. } => "not_enough_servers",
        RStoreError::Degraded(_) => "degraded",
        RStoreError::OutOfRange { .. } => "out_of_range",
        RStoreError::Protocol(_) => "protocol",
        RStoreError::Remote(_) => "remote",
        RStoreError::Io(CqStatus::Timeout) => "io_timeout",
        RStoreError::Io(CqStatus::Flushed) => "io_flushed",
        RStoreError::Io(CqStatus::RemoteAccess) => "io_remote_access",
        RStoreError::Io(_) => "io_other",
        RStoreError::CorruptionDetected { .. } => "corruption_detected",
    }
}

/// A host-time mark: ops completed and thread CPU time at that point,
/// followed by one run of [`host::reference_ns`].
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    /// Ops completed (successful or not) when the mark was taken.
    pub ops: u64,
    /// Thread CPU time at the mark, ns.
    pub cpu_ns: u64,
    /// CPU ns of the reference run taken right after the mark.
    pub ref_ns: u64,
}

impl Mark {
    fn now(ops: u64) -> Mark {
        let cpu_ns = host::thread_cpu_ns();
        Mark {
            ops,
            cpu_ns,
            ref_ns: host::reference_ns(),
        }
    }

    /// CPU ns the workload spent between `self` and the later mark `next`,
    /// without the reference run taken at `self`.
    pub fn cpu_until(&self, next: &Mark) -> u64 {
        next.cpu_ns - self.cpu_ns - self.ref_ns
    }
}

/// Counts completed ops and takes a [`Mark`] every `every` ops. Marks are
/// taken by whichever client task completes the op, so they add no
/// simulation events and leave virtual time untouched.
pub struct Progress {
    done: Cell<u64>,
    every: u64,
    marks: RefCell<Vec<Mark>>,
}

impl Progress {
    /// Progress over `total` ops, cut into `segments` equal slices.
    pub fn new(total: u64, segments: u64) -> Rc<Progress> {
        let mut marks = Vec::with_capacity(segments as usize + 2);
        marks.push(Mark::now(0));
        Rc::new(Progress {
            done: Cell::new(0),
            every: (total / segments).max(1),
            marks: RefCell::new(marks),
        })
    }

    /// Records one completed op.
    pub fn tick(&self) {
        let done = self.done.get() + 1;
        self.done.set(done);
        if done.is_multiple_of(self.every) {
            self.marks.borrow_mut().push(Mark::now(done));
        }
    }

    /// All marks, closing with one at the current count.
    pub fn finish(&self) -> Vec<Mark> {
        let mut marks = self.marks.borrow().clone();
        let done = self.done.get();
        if marks.last().map(|m| m.ops) != Some(done) {
            marks.push(Mark::now(done));
        }
        marks
    }
}

/// The measured window of one pass.
pub struct Window {
    /// Every measured op, grouped by client in issue order.
    pub spans: Vec<Span>,
    /// Virtual duration, ns: first op start to last op end.
    pub v_ns: u64,
    /// Host-time marks across the window.
    pub marks: Vec<Mark>,
    /// Heap allocations made during the window.
    pub allocs: u64,
    /// Resident set growth across the window, KiB (may be negative).
    pub rss_growth_kb: i64,
}

/// Host seconds spent in each set-up phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `Cluster::boot`.
    pub boot_s: f64,
    /// Creating and filling the table or region, and drawing the scripts.
    pub load_s: f64,
    /// Connecting every client and opening or mapping its handle.
    pub open_s: f64,
    /// Warm-up ops that dial QPs and fill hint caches.
    pub warmup_s: f64,
}

impl SetupTimes {
    /// Seconds from set-up start to the first measured op.
    pub fn total(&self) -> f64 {
        self.boot_s + self.load_s + self.open_s + self.warmup_s
    }

    /// Every phase multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> SetupTimes {
        SetupTimes {
            boot_s: self.boot_s * factor,
            load_s: self.load_s * factor,
            open_s: self.open_s * factor,
            warmup_s: self.warmup_s * factor,
        }
    }
}

/// Times consecutive set-up phases.
pub struct PhaseClock {
    last: Instant,
}

impl PhaseClock {
    /// Starts the clock now.
    pub fn start() -> PhaseClock {
        PhaseClock {
            last: Instant::now(),
        }
    }

    /// Seconds since the previous lap (or the start).
    pub fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let s = (now - self.last).as_secs_f64();
        self.last = now;
        s
    }
}

/// Virtual latency of the control-path calls made during set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct CtrlLatency {
    /// The allocating call (`KvTable::create` / `RStoreClient::alloc`), ns.
    pub alloc_ns: u64,
    /// Median over clients of the mapping call (`KvTable::open` /
    /// `RStoreClient::map`), ns.
    pub map_ns: u64,
}

/// Wrong bytes seen anywhere in a pass. Any entry fails the run.
#[derive(Default)]
pub struct Wrong {
    count: Cell<u64>,
    first: RefCell<Vec<String>>,
}

impl Wrong {
    /// Records one wrong result.
    pub fn fail(&self, msg: String) {
        self.count.set(self.count.get() + 1);
        let mut first = self.first.borrow_mut();
        if first.len() < 10 {
            first.push(msg);
        }
    }

    /// `Err` with a summary if anything was wrong.
    pub fn result(&self) -> Result<(), String> {
        match self.count.get() {
            0 => Ok(()),
            n => Err(format!(
                "{n} wrong result(s), first: {}",
                self.first.borrow().join("; ")
            )),
        }
    }
}
