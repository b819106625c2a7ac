//! Regions: the memory-like data-path API.
//!
//! A [`Region`] is a mapped window onto distributed DRAM. Every operation is
//! pure one-sided RDMA against the memory servers named in the region's
//! descriptor — no master involvement, no remote CPU.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::future::{poll_fn, Future};
use std::ops::Range;
use std::pin::Pin;
use std::rc::Rc;
use std::task::Poll;
use std::time::Duration;

use rdma::{CqStatus, DmaBuf, RdmaError, SgeList, Wr, WrOp, MAX_SGE};
use sim::channel::oneshot;
use sim::sync::Semaphore;
use sim::{OpLedger, Phase};

use crate::client::RStoreClient;
use crate::crc::crc32c;
use crate::error::{forensic_reason, RStoreError, Result};
use crate::layout::{Layout, Piece};
use crate::proto::{Extent, RegionDesc, CK_BYTES};

/// Direction of a posted IO.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Dir {
    Read,
    Write,
}

/// A posted read awaiting completion: `(piece, dst, replica, redialed, rx)`.
/// The bool marks whether this replica has spent its one reconnect retry.
type ReadWait = (Piece, DmaBuf, usize, bool, oneshot::Receiver<CqStatus>);
/// A read that needs a failover pass: `(piece, dst, replica, redialed,
/// status)`. The status is the completion that sent it here, preserved so a
/// piece that exhausts its replicas surfaces *why* (e.g. `RemoteAccess` when
/// every replica rejected the rkey — the signal a region was freed under the
/// reader) instead of a generic timeout.
type ReadRetry = (Piece, DmaBuf, usize, bool, CqStatus);
/// One gather element to post: `(piece, buffer, replica)` — the piece's
/// bytes move between `buffer` (at `piece.buf_offset`) and the replica's
/// extent.
type Item = (Piece, DmaBuf, usize);
/// A posted gather WR: the range of the caller's elements it carries, and
/// its completion receiver.
type Posted = (Range<usize>, oneshot::Receiver<CqStatus>);

/// Recycled IO scratch shared by all clones of a [`Region`] handle: staging
/// `DmaBuf`s for checksummed stripe assembly/verification and a host-side
/// byte scratch for CRC work. Reuse keeps the steady-state op set
/// allocation-free (arena allocation is zero virtual time, so pooling
/// changes no wire traffic or timing — only host-heap churn).
struct IoPool {
    staging: RefCell<Vec<DmaBuf>>,
    scratch: RefCell<Vec<u8>>,
}

/// Staging buffers kept for reuse; beyond this the excess is freed back to
/// the arena (mixed-size workloads would otherwise grow the pool without
/// bound).
const POOL_CAP: usize = 32;

/// A mapped region of distributed memory.
///
/// Obtained from [`RStoreClient::alloc`] or [`RStoreClient::map`]. Offsets
/// are region-relative; striping and replication are transparent.
///
/// Two API levels are offered:
///
/// * **Convenience** — [`read`](Self::read) / [`write`](Self::write) move
///   `Vec<u8>`s through an internal staging buffer and perform read failover
///   across replicas.
/// * **Zero-copy** — [`start_read`](Self::start_read) /
///   [`start_write`](Self::start_write) post IO directly between a local
///   [`DmaBuf`] and the region, returning an [`IoHandle`]; combine with
///   [`RStoreClient::sync`] for bulk pipelines.
#[derive(Clone)]
pub struct Region {
    client: RStoreClient,
    /// The cached descriptor, shared by every clone of this handle: when one
    /// IO path discovers the data moved (live migration, drain) and
    /// [`revalidate`](Self::revalidate)s, all clones see the refresh.
    desc: Rc<RefCell<RegionDesc>>,
    /// Derived from `desc`; refreshed together with it.
    layout: Rc<RefCell<Layout>>,
    /// The region's name never changes across refreshes; cached outside the
    /// cell so `name()` can hand out a plain `&str`.
    name: Rc<str>,
    /// Likewise immutable for the region's lifetime.
    checksums: bool,
    /// Recycled staging/scratch buffers, shared by every clone.
    pool: Rc<IoPool>,
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.desc.borrow();
        f.debug_struct("Region")
            .field("name", &d.name)
            .field("size", &d.size)
            .field("stripes", &d.groups.len())
            .finish()
    }
}

impl Region {
    pub(crate) fn new(client: RStoreClient, desc: RegionDesc) -> Region {
        let layout = Layout::new(&desc);
        let name = Rc::from(desc.name.as_str());
        let checksums = desc.checksums;
        Region {
            client,
            desc: Rc::new(RefCell::new(desc)),
            layout: Rc::new(RefCell::new(layout)),
            name,
            checksums,
            pool: Rc::new(IoPool {
                staging: RefCell::new(Vec::new()),
                scratch: RefCell::new(Vec::new()),
            }),
        }
    }

    /// Fetches a staging buffer of exactly `len` bytes from the pool, or
    /// allocates a fresh one. Pair with [`put_staging`](Self::put_staging).
    pub(crate) fn take_staging(&self, len: u64) -> Result<DmaBuf> {
        let mut pool = self.pool.staging.borrow_mut();
        if let Some(i) = pool.iter().rposition(|b| b.len == len) {
            return Ok(pool.swap_remove(i));
        }
        drop(pool);
        Ok(self.client.shared.dev.alloc(len)?)
    }

    /// Returns a staging buffer to the pool (or frees it when full).
    pub(crate) fn put_staging(&self, buf: DmaBuf) {
        let mut pool = self.pool.staging.borrow_mut();
        if pool.len() < POOL_CAP {
            pool.push(buf);
        } else {
            let _ = self.client.shared.dev.free(buf);
        }
    }

    /// Logical size in bytes.
    pub fn size(&self) -> u64 {
        self.desc.borrow().size
    }

    /// The region's name in the master's namespace.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A snapshot of the control-path descriptor as currently cached.
    pub fn desc(&self) -> RegionDesc {
        self.desc.borrow().clone()
    }

    /// The extent serving `replica` of stripe `group`, per the cached
    /// descriptor.
    fn extent(&self, group: usize, replica: usize) -> Extent {
        self.desc.borrow().groups[group].replicas[replica]
    }

    /// Replica count of stripe `group`.
    fn replicas(&self, group: usize) -> usize {
        self.desc.borrow().groups[group].replicas.len()
    }

    /// Stripe length of `group`.
    fn stripe_len(&self, group: usize) -> u64 {
        self.desc.borrow().groups[group].len()
    }

    /// Resolves the primary-replica extent serving the 8-byte word at
    /// `offset`, plus the word's offset within that stripe — the addressing
    /// path for one-sided atomics, with no descriptor clone or piece-vector
    /// allocation per call.
    pub(crate) fn word_extent(&self, offset: u64) -> Result<(Extent, u64)> {
        let piece = self.layout.borrow().piece_at(offset, 8)?;
        Ok((self.extent(piece.group, 0), piece.offset_in_stripe))
    }

    /// Re-fetches the descriptor from the master because cached placement
    /// went stale (an extent answered `RemoteAccess`: it was migrated away,
    /// or is sealed mid-migration). Polls with bounded exponential backoff
    /// until the master publishes a *different* descriptor, then installs it
    /// for every clone of this handle. Returns `Ok` even if the descriptor
    /// never changed within the budget — the caller's single retry then
    /// surfaces the truth (a migration that rolled back unseals the original
    /// extent, so the retry succeeds against the unchanged descriptor).
    ///
    /// # Errors
    ///
    /// Control-path failures, e.g. [`RStoreError::NotFound`] once the region
    /// has been freed. Callers keep their original IO error in that case —
    /// "the data is gone" must keep surfacing as `RemoteAccess` for layered
    /// recovery (the KV generation machinery) to work unchanged.
    pub(crate) async fn revalidate(&self) -> Result<()> {
        let s = &self.client.shared;
        s.dev.metrics().incr("rstore.desc.stale");
        s.sim.phase(Phase::Reval, || self.revalidate_inner()).await
    }

    async fn revalidate_inner(&self) -> Result<()> {
        let s = &self.client.shared;
        let mut backoff = Duration::from_millis(1);
        for attempt in 0u64..8 {
            let fresh = self.client.lookup(self.name()).await?;
            if fresh != *self.desc.borrow() {
                s.dev.metrics().incr("rstore.desc.refresh");
                s.sim.tracer().instant(
                    "core",
                    "rstore.desc.refresh",
                    s.dev.node().0 as u64,
                    attempt,
                );
                *self.layout.borrow_mut() = Layout::new(&fresh);
                *self.desc.borrow_mut() = fresh;
                return Ok(());
            }
            if attempt == 7 {
                break;
            }
            // The descriptor has not moved: the extent is still sealed for a
            // migration/repair in flight, so this backoff is a seal stall.
            s.sim.phase(Phase::Seal, || s.sim.sleep(backoff)).await;
            backoff = (backoff * 2).min(Duration::from_millis(50));
        }
        Ok(())
    }

    /// The owning client.
    pub fn client(&self) -> &RStoreClient {
        &self.client
    }

    /// Waits for every outstanding asynchronous IO posted through this
    /// region's client (the paper's `r_sync`). Alias for
    /// [`RStoreClient::sync`].
    pub async fn sync(&self) {
        self.client.sync().await;
    }

    /// Starts a cost ledger for one logical `op` if the owning client has
    /// ledgers enabled ([`ClientConfig::ledger`](crate::client::ClientConfig::ledger)),
    /// otherwise the free disabled ledger.
    fn op_ledger(&self, op: &'static str) -> OpLedger {
        let s = &self.client.shared;
        if s.cfg.ledger {
            let now = s.sim.now();
            // Causal forensics ride the ledger: when the simulation's
            // forensics registry is enabled, the op also gets a phase span
            // tree (otherwise the trace is the free disabled one).
            let trace = s.sim.forensics().start(op, now);
            OpLedger::start_traced(&s.dev.metrics(), op, now, trace)
        } else {
            OpLedger::disabled()
        }
    }

    /// Runs the IO `io` makes as one logical `op` covering `units` units.
    /// With no op context set it runs under a fresh ledger
    /// ([`op_ledger`](Self::op_ledger)) and folds an `ops.<op>` row; inside
    /// another op it joins that op, so a public op called from within an
    /// op adds no row of its own. Taking a maker, not a future, keeps one
    /// copy of the IO future in this one's state.
    pub(crate) async fn run_op<T, F: Future<Output = Result<T>>>(
        &self,
        op: &'static str,
        units: u64,
        io: impl FnOnce() -> F,
    ) -> Result<T> {
        let owned = !OpLedger::in_op();
        let ledger = if owned {
            let ledger = self.op_ledger(op);
            ledger.set_units(units);
            ledger
        } else {
            OpLedger::current()
        };
        let result = ledger.scope(io()).await;
        if owned {
            // A structured error (corruption, timeout, failover exhaustion,
            // capacity) is recorded on the op's forensics trace, which
            // makes the registry dump a triage bundle.
            let error = result.as_ref().err().and_then(forensic_reason);
            ledger.finish_with(self.client.shared.sim.now(), error);
        }
        result
    }

    /// Runs `io` and, when it fails because every replica it touched
    /// rejected the rkey (the cached descriptor is stale: the data was
    /// migrated away or sealed), revalidates the descriptor and runs it
    /// once more. Region IO is idempotent, so re-running is safe. A failed
    /// refresh (e.g. the region was freed, so lookup says `NotFound`) keeps
    /// the original IO error: layered protocols — the KV generation
    /// machinery — key their own recovery on `RemoteAccess`, not on
    /// control-path lookup errors.
    async fn with_revalidation<F: Future<Output = Result<()>>>(
        &self,
        io: impl Fn() -> F,
    ) -> Result<()> {
        match io().await {
            Err(e) if is_stale(&e) => {
                if self.revalidate().await.is_err() {
                    return Err(e);
                }
                OpLedger::current().retry();
                io().await
            }
            r => r,
        }
    }

    // --- convenience byte API -------------------------------------------------

    /// Reads `len` bytes at `offset` into a fresh `Vec`.
    ///
    /// Performs replica failover: if the primary read of a stripe fails, the
    /// next replica is tried.
    ///
    /// # Errors
    ///
    /// [`RStoreError::OutOfRange`] or [`RStoreError::Io`] when all replicas
    /// of some stripe fail.
    pub async fn read(&self, offset: u64, len: u64) -> Result<Vec<u8>> {
        let dev = self.client.shared.dev.clone();
        let staging = self.take_staging(len.max(1))?;
        let result = async {
            self.read_into(offset, staging.slice(0, len)).await?;
            Ok(dev.read_mem(staging.addr, len)?)
        }
        .await;
        self.put_staging(staging);
        result
    }

    /// [`write`](Self::write) for small host-resident images: posts the
    /// payload as *inline* WRITE WRs ([`Wr::inline`](rdma::Wr#structfield.inline))
    /// when the device's [`inline_max`](rdma::RdmaConfig::inline_max)
    /// permits, so the publish pays the cheaper inline post cost and its
    /// staging buffer is free again as soon as the WRs are posted. Falls
    /// back to the staged path when inline posting is disabled (the
    /// default), the image is too large, the region carries stripe
    /// checksums, or any inline WR fails — region writes are idempotent, so
    /// re-writing replicas that already landed is safe.
    pub(crate) async fn write_inline(&self, offset: u64, bytes: &[u8]) -> Result<()> {
        let s = &self.client.shared;
        let len = bytes.len() as u64;
        if self.checksums || len == 0 || len > s.dev.config().inline_max {
            return self.write(offset, bytes).await;
        }
        let staging = self.take_staging(len)?;
        let failed = async {
            s.dev.write_mem(staging.addr, bytes)?;
            let mut items = self.write_items(offset, staging)?;
            Ok::<_, RStoreError>(self.write_round(&mut items, true).await)
        }
        .await;
        self.put_staging(staging);
        if failed?.is_empty() {
            s.dev.metrics().incr("rstore.inline.writes");
            s.dev.metrics().add("rstore.inline.bytes", len);
            return Ok(());
        }
        // Some replica refused or failed the inline post: one staged retry
        // round re-writes the whole image through the ordinary recovery
        // machinery (redial, replica repost, stale-descriptor revalidation).
        s.dev.metrics().incr("rstore.inline.fallback");
        OpLedger::current().retry();
        self.write(offset, bytes).await
    }

    /// Writes `data` at `offset`.
    ///
    /// # Errors
    ///
    /// [`RStoreError::OutOfRange`] or [`RStoreError::Io`].
    pub async fn write(&self, offset: u64, data: &[u8]) -> Result<()> {
        let dev = self.client.shared.dev.clone();
        let staging = self.take_staging(data.len().max(1) as u64)?;
        let result = async {
            dev.write_mem(staging.addr, data)?;
            self.write_from(offset, staging.slice(0, data.len() as u64))
                .await
        }
        .await;
        self.put_staging(staging);
        result
    }

    // --- zero-copy awaitable API ------------------------------------------------

    /// Reads `dst.len` bytes at `offset` into local buffer `dst`, with
    /// replica failover, and waits for completion. When every replica of
    /// some stripe answers `RemoteAccess` the cached descriptor is stale
    /// (the data was migrated away), so the read revalidates and retries
    /// once rather than erroring.
    ///
    /// # Errors
    ///
    /// [`RStoreError::OutOfRange`] or [`RStoreError::Io`].
    pub async fn read_into(&self, offset: u64, dst: DmaBuf) -> Result<()> {
        let op = if self.checksums { "read_ck" } else { "read" };
        let io = || self.with_revalidation(|| self.read_into_raw(offset, dst));
        self.run_op(op, 1, io).await
    }

    async fn read_into_raw(&self, offset: u64, dst: DmaBuf) -> Result<()> {
        let s = &self.client.shared;
        let _span = s
            .sim
            .tracer()
            .span_arg("core", "rstore.read", s.dev.node().0 as u64, dst.len);
        if self.checksums {
            return self.read_into_ck(offset, dst).await;
        }
        let pieces = self.layout.borrow().pieces(offset, dst.len)?;
        let mut items: Vec<Item> = pieces.into_iter().map(|p| (p, dst, 0)).collect();
        self.read_round(&mut items).await
    }

    /// One round of primary reads: `items` go out grouped per memory server
    /// ([`post_grouped`](Self::post_grouped)) and are awaited as one round
    /// trip. Every piece of a WR that failed — the CQE folds the first
    /// failing element's status over the whole WR — or failed to post then
    /// takes [`drain_reads`](Self::drain_reads)' per-piece failover.
    async fn read_round(&self, items: &mut [Item]) -> Result<()> {
        let (posted, unposted) = self.post_grouped(items, |&it| it, Dir::Read, false, MAX_SGE);
        let mut retry: Vec<ReadRetry> = unposted
            .into_iter()
            .flat_map(|range| &items[range])
            .map(|&(p, b, r)| (p, b, r, false, CqStatus::Timeout))
            .collect();
        if !posted.is_empty() {
            OpLedger::current().rtt();
        }
        for (range, rx) in posted {
            let status = rx.await.unwrap_or(CqStatus::Flushed);
            if status != CqStatus::Success {
                retry.extend(
                    items[range]
                        .iter()
                        .map(|&(p, b, r)| (p, b, r, false, status)),
                );
            }
        }
        self.drain_reads(retry).await
    }

    /// Reads many `(offset, dst)` pairs as one posting round.
    ///
    /// Like [`read_into`](Self::read_into), but the pieces of every pair
    /// are grouped per memory server together — one gather WR (one doorbell,
    /// one CQE) per [`MAX_SGE`] pieces per server — and posted before any
    /// completion is awaited. Failover is still per piece with exactly
    /// `read_into`'s reconnect-then-advance semantics; retry rounds post
    /// individually (failures are rare and batching them buys nothing).
    ///
    /// On checksummed regions each pair takes the verified (windowed) read
    /// path in turn; grouping across pairs applies to plain regions only.
    ///
    /// # Errors
    ///
    /// [`RStoreError::OutOfRange`] (checked for every pair before anything
    /// posts) or [`RStoreError::Io`] when all replicas of some stripe fail.
    pub async fn read_into_many(&self, ios: &[(u64, DmaBuf)]) -> Result<()> {
        let op = if self.checksums {
            "read_ck"
        } else {
            "read_many"
        };
        let io = || self.with_revalidation(|| self.read_into_many_raw(ios));
        self.run_op(op, ios.len() as u64, io).await
    }

    async fn read_into_many_raw(&self, ios: &[(u64, DmaBuf)]) -> Result<()> {
        let s = &self.client.shared;
        let _span = s.sim.tracer().span_arg(
            "core",
            "rstore.read_many",
            s.dev.node().0 as u64,
            ios.len() as u64,
        );
        if self.checksums {
            for &(offset, dst) in ios {
                self.read_into_ck(offset, dst).await?;
            }
            return Ok(());
        }
        // Resolve every pair up front so an out-of-range IO fails the call
        // before a single byte is posted.
        let mut items: Vec<Item> = Vec::new();
        for &(offset, dst) in ios {
            let pieces = self.layout.borrow().pieces(offset, dst.len)?;
            items.extend(pieces.into_iter().map(|p| (p, dst, 0)));
        }
        self.read_round(&mut items).await
    }

    /// Runs the replica-failover loop over reads whose first attempt
    /// failed, until every piece has landed or some piece exhausts its
    /// replicas.
    ///
    /// A failed replica is first granted one reconnect retry — its QP may be
    /// broken while the server is fine — and only advances to the next
    /// replica once that retry fails or the re-dial is refused (backoff
    /// gate, dead node). A piece that exhausts its replicas fails the read.
    ///
    /// One retry span covers the whole recovery tail: it opens at the first
    /// failed piece and closes when the op settles. Individual WR waits and
    /// failover marks nest inside it, so the span's self-time is exactly
    /// the recovery overhead (redials, reposts) not explained by wire.
    async fn drain_reads(&self, retry: Vec<ReadRetry>) -> Result<()> {
        if retry.is_empty() {
            return Ok(());
        }
        let sim = &self.client.shared.sim;
        sim.phase(Phase::Retry, || self.fail_over_reads(retry))
            .await
    }

    async fn fail_over_reads(&self, mut retry: Vec<ReadRetry>) -> Result<()> {
        let mut waits: Vec<ReadWait> = Vec::new();
        let sim = &self.client.shared.sim;
        let ledger = OpLedger::current();
        let trace = ledger.optrace();
        loop {
            // Each pass that awaits at least one posted completion is one
            // round trip for the logical op (pieces in a round fly in
            // parallel).
            if !waits.is_empty() {
                ledger.rtt();
            }
            for (piece, buf, replica, redialed, rx) in waits.drain(..) {
                match rx.await {
                    Some(CqStatus::Success) => {}
                    Some(status) => retry.push((piece, buf, replica, redialed, status)),
                    None => retry.push((piece, buf, replica, redialed, CqStatus::Flushed)),
                }
            }
            if retry.is_empty() {
                return Ok(());
            }
            let failed = std::mem::take(&mut retry);
            let mut next_round = Vec::new();
            for (piece, buf, replica, redialed, status) in failed {
                if !redialed {
                    let node = self.extent(piece.group, replica).node;
                    if self.client.redial(node).await.is_ok() {
                        if let Ok(rx) = self.post_wr([(piece, buf, replica)], Dir::Read, false) {
                            ledger.retry();
                            next_round.push((piece, buf, replica, true, rx));
                            continue;
                        }
                    }
                    // The reconnect retry is spent; advance next pass.
                    retry.push((piece, buf, replica, true, status));
                    continue;
                }
                let next = replica + 1;
                if next >= self.replicas(piece.group) {
                    return Err(RStoreError::Io(status));
                }
                ledger.failover();
                trace.mark(Phase::Failover, sim.now());
                match self.post_wr([(piece, buf, next)], Dir::Read, false) {
                    Ok(rx) => next_round.push((piece, buf, next, false, rx)),
                    Err(_) => retry.push((piece, buf, next, false, status)),
                }
            }
            waits = next_round;
        }
    }

    /// Writes local buffer `src` at `offset` (to **all** replicas) and waits
    /// for every acknowledgement. A replica that answers `RemoteAccess` was
    /// sealed or migrated away: the write revalidates the descriptor and
    /// retries once against the refreshed placement.
    ///
    /// # Errors
    ///
    /// [`RStoreError::OutOfRange`] or [`RStoreError::Io`].
    pub async fn write_from(&self, offset: u64, src: DmaBuf) -> Result<()> {
        let op = if self.checksums { "write_ck" } else { "write" };
        let io = || self.with_revalidation(|| self.write_from_raw(offset, src));
        self.run_op(op, 1, io).await
    }

    async fn write_from_raw(&self, offset: u64, src: DmaBuf) -> Result<()> {
        let s = &self.client.shared;
        let _span = s
            .sim
            .tracer()
            .span_arg("core", "rstore.write", s.dev.node().0 as u64, src.len);
        if self.checksums {
            return self.write_from_ck(offset, src).await;
        }
        let mut items = self.write_items(offset, src)?;
        let failed = self.write_round(&mut items, false).await;
        self.recover_failed_writes(failed, src).await
    }

    /// Every `(piece, replica)` pair a write of `src` at `offset` must
    /// reach: all replicas of all touched stripe pieces.
    fn write_items(&self, offset: u64, src: DmaBuf) -> Result<Vec<Item>> {
        let pieces = self.layout.borrow().pieces(offset, src.len)?;
        let mut items = Vec::with_capacity(pieces.len());
        for piece in pieces {
            items.extend((0..self.replicas(piece.group)).map(|r| (piece, src, r)));
        }
        Ok(items)
    }

    /// One round of writes: `items` go out grouped per memory server
    /// ([`post_grouped`](Self::post_grouped)), all in flight at once (one
    /// round trip). Returns the `(piece, replica)` pairs of every WR that
    /// failed or failed to post — writes are idempotent, so re-writing the
    /// pairs of a failed WR that did land is safe.
    async fn write_round(&self, items: &mut [Item], inline: bool) -> Vec<(Piece, usize)> {
        let (posted, unposted) = self.post_grouped(items, |&it| it, Dir::Write, inline, MAX_SGE);
        let mut failed: Vec<(Piece, usize)> = unposted
            .into_iter()
            .flat_map(|range| &items[range])
            .map(|&(p, _, r)| (p, r))
            .collect();
        if !posted.is_empty() {
            OpLedger::current().rtt();
        }
        for (range, rx) in posted {
            if !matches!(rx.await, Some(CqStatus::Success)) {
                failed.extend(items[range].iter().map(|&(p, _, r)| (p, r)));
            }
        }
        failed
    }

    /// Recovery round of a plain write: a write must reach every replica,
    /// so each failed (piece, replica) gets one re-dial plus repost; a
    /// replica that stays unreachable fails the IO.
    async fn recover_failed_writes(&self, failed: Vec<(Piece, usize)>, src: DmaBuf) -> Result<()> {
        if failed.is_empty() {
            return Ok(());
        }
        let ledger = OpLedger::current();
        let recover = || async {
            for (piece, r) in failed {
                let node = self.extent(piece.group, r).node;
                if self.client.redial(node).await.is_err() {
                    return Err(RStoreError::Io(CqStatus::Timeout));
                }
                let Ok(rx) = self.post_wr([(piece, src, r)], Dir::Write, false) else {
                    return Err(RStoreError::Io(CqStatus::Timeout));
                };
                ledger.retry();
                ledger.rtt();
                match rx.await {
                    Some(CqStatus::Success) => {}
                    Some(status) => return Err(RStoreError::Io(status)),
                    None => return Err(RStoreError::Io(CqStatus::Flushed)),
                }
            }
            Ok(())
        };
        self.client.shared.sim.phase(Phase::Retry, recover).await
    }

    // --- verified (checksummed) paths -----------------------------------------

    /// Verified read for checksummed regions: every touched stripe is read
    /// in full (data + trailer) from one replica, its CRC32C re-verified
    /// client-side, and only then is the requested sub-range copied into
    /// `dst`. A replica that fails verification is treated like a failed
    /// replica: the read fails over to the next one and the bad extent is
    /// reported to the master in the background so the repair task can
    /// re-replicate it.
    ///
    /// Stripes move through a bounded window, issued and awaited in this
    /// one task: at most
    /// [`ClientConfig::pipeline_depth`](crate::client::ClientConfig::pipeline_depth)
    /// stripes (and their staging buffers) are in flight, and each refill
    /// goes out grouped per memory server into gather WRs of at most
    /// `min(MAX_SGE, pipeline_depth)` stripes — one round trip per refill.
    /// Verification of a landed WR overlaps the fabric round trips of the
    /// rest. At depth 1 this is the serial post→await→post loop; at a depth
    /// of at least the stripe count, one grouped round. A stripe whose WR
    /// failed or whose CRC does not match continues its own failover
    /// ([`read_piece_verified_into`](Self::read_piece_verified_into)).
    /// A failure stops further issue; the window drains, and the error of
    /// the first failing stripe in piece order wins.
    async fn read_into_ck(&self, offset: u64, dst: DmaBuf) -> Result<()> {
        let pieces = self.layout.borrow().pieces(offset, dst.len)?;
        let depth = self.client.shared.cfg.pipeline_depth.max(1);
        let full = |i: usize| Piece {
            group: pieces[i].group,
            offset_in_stripe: 0,
            len: self.stripe_len(pieces[i].group) + CK_BYTES,
            buf_offset: 0,
        };
        // Every issued stripe as `(piece index, staging)`, in issue order;
        // a WR in flight owns a range of it.
        let mut issued: Vec<(usize, DmaBuf)> = Vec::with_capacity(pieces.len().min(depth));
        let mut flights: Vec<Posted> = Vec::new();
        let (mut inflight, mut peak) = (0, 0);
        let mut first_err: Option<(usize, RStoreError)> = None;
        loop {
            let next = issued.len();
            if first_err.is_none() && next < pieces.len() && inflight < depth {
                let n = (depth - inflight).min(pieces.len() - next);
                for i in next..next + n {
                    match self.take_staging(full(i).len) {
                        Ok(staging) => issued.push((i, staging)),
                        Err(e) => {
                            keep_first(&mut first_err, i, e);
                            break;
                        }
                    }
                }
                inflight += issued.len() - next;
                peak = peak.max(inflight);
                let (posted, unposted) = self.post_grouped(
                    &mut issued[next..],
                    |&(i, staging)| (full(i), staging, 0),
                    Dir::Read,
                    false,
                    depth.min(MAX_SGE),
                );
                if !posted.is_empty() {
                    OpLedger::current().rtt();
                }
                let shift = |r: Range<usize>| r.start + next..r.end + next;
                flights.extend(posted.into_iter().map(|(r, rx)| (shift(r), rx)));
                // A WR that could not post settles like one that timed out.
                for range in unposted {
                    let (tx, rx) = oneshot::channel();
                    tx.send(CqStatus::Timeout);
                    flights.push((shift(range), rx));
                }
            }
            if flights.is_empty() {
                break;
            }
            // Settle whichever WR completes first.
            let (k, status) = poll_fn(|cx| {
                for (k, (_, rx)) in flights.iter_mut().enumerate() {
                    if let Poll::Ready(status) = Pin::new(rx).poll(cx) {
                        return Poll::Ready((k, status.unwrap_or(CqStatus::Flushed)));
                    }
                }
                Poll::Pending
            })
            .await;
            let (range, _) = flights.remove(k);
            for &(i, staging) in &issued[range] {
                let first = Some(status);
                let settled = self
                    .read_piece_verified_into(&pieces[i], dst, staging, first)
                    .await;
                self.put_staging(staging);
                inflight -= 1;
                if let Err(e) = settled {
                    keep_first(&mut first_err, i, e);
                }
            }
        }
        self.note_inflight_peak(peak as u64);
        first_err.map_or(Ok(()), |(_, e)| Err(e))
    }

    /// Verifies a full stripe sitting in `staging` (data + trailer) and, on
    /// a CRC match, copies the `want` sub-range into `dst`. Returns
    /// `Ok(false)` on a mismatch — the caller decides how to recover.
    fn verify_and_copy_stripe(&self, want: &Piece, staging: DmaBuf, dst: DmaBuf) -> Result<bool> {
        let s = &self.client.shared;
        let stripe_len = self.stripe_len(want.group) as usize;
        let mut scratch = self.pool.scratch.borrow_mut();
        scratch.resize(stripe_len + CK_BYTES as usize, 0);
        s.dev.read_mem_into(staging.addr, &mut scratch[..])?;
        let stored = u64::from_le_bytes(
            scratch[stripe_len..]
                .try_into()
                .expect("trailer is 8 bytes"),
        );
        if crc32c(&scratch[..stripe_len]) as u64 != stored {
            return Ok(false);
        }
        let lo = want.offset_in_stripe as usize;
        s.dev.write_mem(
            dst.addr + want.buf_offset,
            &scratch[lo..lo + want.len as usize],
        )?;
        Ok(true)
    }

    /// Runs `op` once per stripe piece under a bounded in-flight window of
    /// [`ClientConfig::pipeline_depth`](crate::client::ClientConfig::pipeline_depth)
    /// stripes — the pipelining engine behind verified writes. Pieces
    /// are issued in order and a failure stops further issue, so at depth 1
    /// this is exactly the serial post→await→post loop, including which
    /// stripe's error surfaces: results are joined in piece order and the
    /// first error wins.
    async fn pipeline_ck<F, Fut>(&self, pieces: Vec<Piece>, op: F) -> Result<()>
    where
        F: Fn(Region, Piece) -> Fut + 'static,
        Fut: std::future::Future<Output = Result<()>> + 'static,
    {
        let s = &self.client.shared;
        let depth = s.cfg.pipeline_depth.max(1);
        if pieces.len() <= 1 || depth == 1 {
            for piece in pieces {
                op(self.clone(), piece).await?;
            }
            return Ok(());
        }
        let sem = Semaphore::new(depth);
        let failed = Rc::new(Cell::new(false));
        let inflight = Rc::new(Cell::new(0u64));
        let peak = Rc::new(Cell::new(0u64));
        let op = Rc::new(op);
        // Each stripe's task charges the op that spawned it.
        let ledger = OpLedger::current();
        let mut handles = Vec::with_capacity(pieces.len());
        for piece in pieces {
            sem.acquire().await;
            if failed.get() {
                // A stripe already failed; issuing more work would be
                // wasted. Joining below surfaces the in-order error.
                sem.release();
                break;
            }
            inflight.set(inflight.get() + 1);
            peak.set(peak.get().max(inflight.get()));
            let (sem, failed, inflight) = (sem.clone(), failed.clone(), inflight.clone());
            let (op, this) = (op.clone(), self.clone());
            handles.push(s.sim.spawn(ledger.scope(async move {
                let result = op(this, piece).await;
                if result.is_err() {
                    failed.set(true);
                }
                inflight.set(inflight.get() - 1);
                sem.release();
                result
            })));
        }
        self.note_inflight_peak(peak.get());
        for result in sim::join_all(handles).await {
            result?;
        }
        Ok(())
    }

    /// Tracks the deepest stripe window any verified IO reached this run.
    fn note_inflight_peak(&self, peak: u64) {
        let metrics = self.client.shared.dev.metrics();
        let seen = metrics.counter("rstore.pipeline.inflight_max");
        if peak > seen {
            metrics.add("rstore.pipeline.inflight_max", peak - seen);
        }
    }

    /// Reads and verifies the stripe containing `want` into `staging`,
    /// then copies the requested sub-range into `dst`: the per-stripe
    /// failover loop of verified reads. `staging` must hold the full stripe
    /// plus trailer; `dst` may alias it (used by the read-modify-write
    /// path, where the verified stripe is wanted in place). `first` is the
    /// outcome of a primary-replica read already posted into `staging` (its
    /// round trip already charged), or `None` to start by posting one.
    async fn read_piece_verified_into(
        &self,
        want: &Piece,
        dst: DmaBuf,
        staging: DmaBuf,
        mut first: Option<CqStatus>,
    ) -> Result<()> {
        let s = &self.client.shared;
        let ledger = OpLedger::current();
        let stripe_len = self.stripe_len(want.group) as usize;
        let full = Piece {
            group: want.group,
            offset_in_stripe: 0,
            len: stripe_len as u64 + CK_BYTES,
            buf_offset: 0,
        };
        let mut bad_node: Option<u32> = None;
        // If any replica rejects the rkey, remember it: a read that then
        // exhausts its replicas must surface `RemoteAccess` — the stale-
        // descriptor signal the revalidation wrapper retries on — rather
        // than a generic timeout (or, worse, a corruption misdiagnosis).
        let mut access_denied = false;
        let mut replica = 0usize;
        let mut redialed = false;
        while replica < self.replicas(want.group) {
            let status = match first.take() {
                Some(status) => status,
                None => match self.post_wr([(full, staging, replica)], Dir::Read, false) {
                    Ok(rx) => {
                        ledger.rtt();
                        rx.await.unwrap_or(CqStatus::Flushed)
                    }
                    Err(_) => CqStatus::Timeout,
                },
            };
            access_denied |= status == CqStatus::RemoteAccess;
            if status == CqStatus::Success {
                if self.verify_and_copy_stripe(want, staging, dst)? {
                    return Ok(());
                }
                // Checksum mismatch: treat like a replica failure — record
                // it, tell the master (fire-and-forget; the data path must
                // not block on the control path), and fail over.
                let node = self.extent(want.group, replica).node;
                ledger.verify_failure();
                ledger.failover();
                s.dev.metrics().incr("integrity.read_mismatch");
                s.sim.tracer().instant(
                    "core",
                    "rstore.read.corrupt",
                    node as u64,
                    want.group as u64,
                );
                bad_node = Some(node);
                let client = self.client.clone();
                let name = self.name().to_owned();
                let (g, r) = (want.group as u32, replica as u32);
                s.sim.spawn(async move {
                    let _ = client.report_corruption(&name, g, r, node).await;
                });
                replica += 1;
                redialed = false;
                continue;
            }
            // IO failure: one reconnect retry per replica, then advance.
            if !redialed {
                redialed = true;
                let node = self.extent(want.group, replica).node;
                if self.client.redial(node).await.is_ok() {
                    ledger.retry();
                    continue;
                }
            }
            ledger.failover();
            replica += 1;
            redialed = false;
        }
        if access_denied {
            return Err(RStoreError::Io(CqStatus::RemoteAccess));
        }
        match bad_node {
            Some(node) => Err(RStoreError::CorruptionDetected {
                node,
                region: self.name().to_owned(),
                stripe: want.group as u64,
            }),
            None => Err(RStoreError::Io(CqStatus::Timeout)),
        }
    }

    /// Verified write for checksummed regions: each touched stripe is
    /// assembled in full in a staging buffer (partial writes first read the
    /// stripe's current content back through the verified read path), the
    /// CRC32C is recomputed into the trailer, and the whole stripe plus
    /// trailer is written to every replica. Concurrent writers to the same
    /// stripe must be serialized by the application, as with any
    /// non-transactional store. Distinct stripes of one call are pipelined
    /// like verified reads (up to `pipeline_depth` in flight), so stripes
    /// may commit in any order — unchanged from the API contract, which
    /// never promised cross-stripe ordering within a write.
    async fn write_from_ck(&self, offset: u64, src: DmaBuf) -> Result<()> {
        let pieces = self.layout.borrow().pieces(offset, src.len)?;
        self.pipeline_ck(pieces, move |this, piece| async move {
            this.write_piece_ck(&piece, src).await
        })
        .await
    }

    /// Assembles and replicates one checksummed stripe: optional verified
    /// read-modify-write fill, overlay of the new bytes, trailer recompute,
    /// then a write to every replica.
    async fn write_piece_ck(&self, piece: &Piece, src: DmaBuf) -> Result<()> {
        let dev = self.client.shared.dev.clone();
        let stripe_len = self.stripe_len(piece.group);
        let full = Piece {
            group: piece.group,
            offset_in_stripe: 0,
            len: stripe_len + CK_BYTES,
            buf_offset: 0,
        };
        let staging = self.take_staging(full.len)?;
        let result = async {
            if piece.len < stripe_len {
                // Read-modify-write: fetch the stripe's current content
                // (verified, with failover) to fill the bytes this
                // write does not cover.
                let cur = Piece {
                    group: piece.group,
                    offset_in_stripe: 0,
                    len: stripe_len,
                    buf_offset: 0,
                };
                self.read_piece_verified_into(&cur, staging, staging, None)
                    .await?;
            }
            // Overlay the new data and recompute the trailer, bouncing
            // through the pooled host scratch (no per-op allocation).
            {
                let mut scratch = self.pool.scratch.borrow_mut();
                scratch.resize(piece.len as usize, 0);
                dev.read_mem_into(src.addr + piece.buf_offset, &mut scratch[..])?;
                dev.write_mem(staging.addr + piece.offset_in_stripe, &scratch[..])?;
                scratch.resize(stripe_len as usize, 0);
                dev.read_mem_into(staging.addr, &mut scratch[..])?;
                let trailer = (crc32c(&scratch[..]) as u64).to_le_bytes();
                dev.write_mem(staging.addr + stripe_len, &trailer)?;
            }
            self.write_piece_all_replicas(&full, staging).await
        }
        .await;
        self.put_staging(staging);
        result
    }

    /// Writes one (full-stripe) piece to every replica — one WR each, as the
    /// replicas of a stripe live on distinct servers — mirroring
    /// [`write_from`](Self::write_from)'s recovery round: each failed
    /// replica gets one re-dial plus repost, and a replica that stays
    /// unreachable fails the IO.
    async fn write_piece_all_replicas(&self, piece: &Piece, buf: DmaBuf) -> Result<()> {
        let ledger = OpLedger::current();
        let mut waits = Vec::new();
        let mut failed = Vec::new();
        for r in 0..self.replicas(piece.group) {
            match self.post_wr([(*piece, buf, r)], Dir::Write, false) {
                Ok(rx) => waits.push((r, rx)),
                Err(_) => failed.push(r),
            }
        }
        if !waits.is_empty() {
            ledger.rtt();
        }
        for (r, rx) in waits {
            if !matches!(rx.await, Some(CqStatus::Success)) {
                failed.push(r);
            }
        }
        // Repost to every failed replica before awaiting any of the
        // reposts, so recovery of N replicas costs one round trip, not N.
        // (Re-dials stay sequential — they are control path and rare.)
        let mut reposts = Vec::new();
        for r in failed {
            let node = self.extent(piece.group, r).node;
            if self.client.redial(node).await.is_err() {
                return Err(RStoreError::Io(CqStatus::Timeout));
            }
            let Ok(rx) = self.post_wr([(*piece, buf, r)], Dir::Write, false) else {
                return Err(RStoreError::Io(CqStatus::Timeout));
            };
            ledger.retry();
            reposts.push(rx);
        }
        if !reposts.is_empty() {
            ledger.rtt();
        }
        for rx in reposts {
            match rx.await {
                Some(CqStatus::Success) => {}
                Some(status) => return Err(RStoreError::Io(status)),
                None => return Err(RStoreError::Io(CqStatus::Flushed)),
            }
        }
        Ok(())
    }

    /// Posts a read without waiting (no failover, and — unlike
    /// [`read_into`](Self::read_into) — no checksum verification on
    /// checksummed regions). Use [`IoHandle::wait`] or
    /// [`RStoreClient::sync`].
    ///
    /// # Errors
    ///
    /// [`RStoreError::OutOfRange`]; post failures surface as
    /// [`RStoreError::Io`] on wait.
    pub fn start_read(&self, offset: u64, dst: DmaBuf) -> Result<IoHandle> {
        self.start_io(offset, dst, Dir::Read)
    }

    /// Posts a write (all replicas) without waiting.
    ///
    /// # Errors
    ///
    /// As for [`Region::start_read`]; additionally
    /// [`RStoreError::Protocol`] on checksummed regions, where a raw write
    /// would bypass trailer maintenance and make the stripe verify dirty.
    pub fn start_write(&self, offset: u64, src: DmaBuf) -> Result<IoHandle> {
        self.start_io(offset, src, Dir::Write)
    }

    fn start_io(&self, offset: u64, buf: DmaBuf, dir: Dir) -> Result<IoHandle> {
        if self.checksums && dir == Dir::Write {
            return Err(RStoreError::Protocol(
                "zero-copy writes bypass checksum maintenance on checksummed regions".into(),
            ));
        }
        let pieces = self.layout.borrow().pieces(offset, buf.len)?;
        let mut rxs = Vec::new();
        let mut failed = false;
        // One WR per piece: the zero-copy API's callers keep many IOs in
        // flight themselves. It has no logical-op boundary to attribute
        // to, so its WRs stay unledgered even when posted inside an op.
        OpLedger::disabled().enter(|| {
            for piece in &pieces {
                let replicas = match dir {
                    Dir::Read => 1,
                    Dir::Write => self.replicas(piece.group),
                };
                for r in 0..replicas {
                    match self.post_wr([(*piece, buf, r)], dir, false) {
                        Ok(rx) => rxs.push(rx),
                        Err(_) => failed = true,
                    }
                }
            }
        });
        Ok(IoHandle {
            rxs,
            post_failed: failed,
        })
    }

    /// Posts `elems` as gather WRs grouped per memory server: a stable sort
    /// by the server each element's replica lives on (ascending node id,
    /// the caller's order within a server), then one WR per run of at most
    /// `cap` same-server elements. Returns the posted WRs as `(range of
    /// elems, receiver)` in post order, and the ranges whose post failed.
    fn post_grouped<T>(
        &self,
        elems: &mut [T],
        item: impl Fn(&T) -> Item,
        dir: Dir,
        inline: bool,
        cap: usize,
    ) -> (Vec<Posted>, Vec<Range<usize>>) {
        let node = |e: &T| {
            let (piece, _, replica) = item(e);
            self.extent(piece.group, replica).node
        };
        elems.sort_by_key(node);
        let (mut posted, mut unposted) = (Vec::new(), Vec::new());
        let mut start = 0;
        while start < elems.len() {
            let server = node(&elems[start]);
            let mut end = start + 1;
            while end < elems.len() && end - start < cap && node(&elems[end]) == server {
                end += 1;
            }
            match self.post_wr(elems[start..end].iter().map(&item), dir, inline) {
                Ok(rx) => posted.push((start..end, rx)),
                Err(_) => unposted.push(start..end),
            }
            start = end;
        }
        (posted, unposted)
    }

    /// Posts one WR gathering `items` — 1..=[`MAX_SGE`] of them, all on
    /// the same memory server — and returns its completion receiver: one
    /// wr_id, one doorbell, one CQE. The region's only posting helper;
    /// retries and failover post one-element lists through it.
    fn post_wr(
        &self,
        items: impl IntoIterator<Item = Item>,
        dir: Dir,
        inline: bool,
    ) -> Result<oneshot::Receiver<CqStatus>> {
        let s = &self.client.shared;
        let mut sges: Option<SgeList> = None;
        let (mut node, mut total) = (0, 0);
        for (piece, buf, replica) in items {
            let extent = self.extent(piece.group, replica);
            let local = buf.slice(piece.buf_offset, piece.len);
            let remote = rdma::RemoteAddr {
                addr: extent.addr + piece.offset_in_stripe,
                rkey: rdma::RKey(extent.rkey),
            };
            match sges.as_mut() {
                None => {
                    node = extent.node;
                    sges = Some(SgeList::one(local, remote));
                }
                Some(list) => {
                    debug_assert_eq!(extent.node, node, "gather WR spans servers");
                    list.push(local, remote)?;
                }
            }
            total += piece.len;
        }
        let sges = sges.expect("a WR gathers at least one piece");
        let conns = s.conns.borrow();
        let qp = conns
            .get(&node)
            .ok_or(RStoreError::Rdma(RdmaError::QpError))?;
        let wr_id = s.next_wr.get();
        s.next_wr.set(wr_id + 1);
        let (tx, rx) = oneshot::channel();
        s.pending.borrow_mut().insert(wr_id, tx);
        s.outstanding.add(1);
        let op = match dir {
            Dir::Read => WrOp::Read,
            Dir::Write => WrOp::Write,
        };
        let wr = Wr {
            inline,
            ..Wr::new(wr_id, op, sges)
        };
        if let Err(e) = qp.post(&[wr]) {
            s.pending.borrow_mut().remove(&wr_id);
            s.outstanding.done();
            return Err(e.into());
        }
        self.arm_backstop(wr_id, total);
        let metric = match dir {
            Dir::Read => "rstore.read_bytes",
            Dir::Write => "rstore.write_bytes",
        };
        s.dev.metrics().add(metric, total);
        Ok(rx)
    }

    /// Per-IO timeout backstop: if no completion ever routes back for
    /// this work request, fail it client-side so region IO is bounded in
    /// virtual time. The deadline must be the device's backlog-aware
    /// bound, not the isolated-op timeout: behind a deep backlog (e.g.
    /// a fluid-mode shuffle) an op legitimately outlives op_timeout of
    /// its own size. The guard only resolves the waiter — the
    /// outstanding count is left to the completion router, which drains
    /// the device-generated CQE (the verbs layer always produces one).
    fn arm_backstop(&self, wr_id: u64, len: u64) {
        let s = &self.client.shared;
        let deadline = s.sim.now() + s.dev.op_deadline(len) + s.cfg.io_grace;
        let client = self.client.clone();
        s.sim.schedule_at(deadline, move || {
            let sh = &client.shared;
            if let Some(tx) = sh.pending.borrow_mut().remove(&wr_id) {
                sh.dev.metrics().incr("rstore.io_timeout");
                tx.send(CqStatus::Timeout);
            }
        });
    }
}

/// True when `e` is the stale-descriptor signal: every replica the op
/// touched rejected the rkey (`RemoteAccess`), which happens exactly when
/// the extent was migrated away (rkey deregistered) or sealed mid-migration
/// (write rights revoked) — never for a crashed or unreachable server,
/// which surfaces timeouts instead.
fn is_stale(e: &RStoreError) -> bool {
    matches!(e, RStoreError::Io(CqStatus::RemoteAccess))
}

/// Records stripe `i`'s error unless a stripe earlier in piece order
/// already failed: the error a windowed verified read surfaces is the first
/// failing stripe's, whatever order the window settled them in.
fn keep_first(slot: &mut Option<(usize, RStoreError)>, i: usize, e: RStoreError) {
    if slot.as_ref().is_none_or(|&(j, _)| i < j) {
        *slot = Some((i, e));
    }
}

/// Tracks a batch of posted one-sided operations.
#[derive(Debug)]
pub struct IoHandle {
    rxs: Vec<oneshot::Receiver<CqStatus>>,
    post_failed: bool,
}

impl IoHandle {
    /// Waits for every operation in the batch; the first failure (after all
    /// have finished) is returned.
    ///
    /// # Errors
    ///
    /// [`RStoreError::Io`] if any operation failed or failed to post.
    pub async fn wait(self) -> Result<()> {
        let mut first_err = if self.post_failed {
            Some(RStoreError::Rdma(RdmaError::QpError))
        } else {
            None
        };
        for rx in self.rxs {
            match rx.await {
                Some(CqStatus::Success) => {}
                Some(status) => {
                    first_err.get_or_insert(RStoreError::Io(status));
                }
                None => {
                    first_err.get_or_insert(RStoreError::Io(CqStatus::Flushed));
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Number of posted operations in the batch.
    pub fn len(&self) -> usize {
        self.rxs.len()
    }

    /// True if the batch posted nothing (zero-length IO).
    pub fn is_empty(&self) -> bool {
        self.rxs.is_empty()
    }
}
