//! The region-stream workload: batched small reads and stripe-sized
//! replicated writes against one plain striped region.

use std::rc::Rc;

use rdma::{DmaBuf, RdmaDevice};
use rstore::{AllocOptions, ClientConfig, Cluster, ClusterConfig, Region};
use sim::{DetRng, Sim};

use crate::payload::{check_pattern, fill_pattern};
use crate::window::{
    variant, CtrlLatency, Kind, PhaseClock, Progress, SetupTimes, Span, Window, Wrong,
};
use crate::{host, stats};

const REGION: &str = "perfbench";
/// Bytes per read piece.
const PIECE: u64 = 4096;
/// Pieces per read batch.
const PIECES: usize = 16;
/// Bytes per load and verification IO.
const BULK: u64 = 1 << 20;

/// The region workload's shape.
#[derive(Clone, Debug)]
pub struct RegionSpec {
    /// Memory servers.
    pub servers: usize,
    /// Client machines, one closed-loop task each.
    pub clients: usize,
    /// Region size in bytes (a multiple of [`BULK`]).
    pub region_bytes: u64,
    /// Stripe size; also the size of every write.
    pub stripe: u64,
    /// Replicas per stripe.
    pub replicas: u8,
    /// Share of ops that are read batches.
    pub read_frac: f64,
    /// Measured ops per client.
    pub ops_per_client: usize,
    /// Warm-up read batches per client.
    pub warmup_reads: usize,
}

/// A read batch names `PIECES` piece indices; a write names one stripe in
/// `at[0]`.
#[derive(Clone, Copy, Debug)]
struct RegionOp {
    write: bool,
    at: [u32; PIECES],
}

/// One client machine's handle and its registered buffers.
struct Client {
    region: Region,
    dev: RdmaDevice,
    /// `PIECES` × `PIECE` landing buffer for read batches.
    rbuf: DmaBuf,
    /// One stripe of write source.
    wbuf: DmaBuf,
    /// Host copy for filling and checking.
    scratch: Vec<u8>,
}

/// A set-up region cluster, ready for its measured window.
pub struct RegionEnv {
    spec: RegionSpec,
    sim: Sim,
    cluster: Rc<Cluster>,
    clients: Vec<Client>,
    scripts: Rc<Vec<Vec<RegionOp>>>,
    wrong: Rc<Wrong>,
}

fn draw_scripts(spec: &RegionSpec, seed: u64) -> Vec<Vec<RegionOp>> {
    let pieces = spec.region_bytes / PIECE;
    let stripes = spec.region_bytes / spec.stripe;
    (0..spec.clients)
        .map(|c| {
            let mut rng = DetRng::new(seed).fork(0x7267_0000 + c as u64);
            (0..spec.ops_per_client)
                .map(|_| {
                    let write = !rng.chance(spec.read_frac);
                    let mut at = [0u32; PIECES];
                    if write {
                        at[0] = rng.range_u64(0, stripes) as u32;
                    } else {
                        for a in &mut at {
                            *a = rng.range_u64(0, pieces) as u32;
                        }
                    }
                    RegionOp { write, at }
                })
                .collect()
        })
        .collect()
}

impl Client {
    fn piece(&self, j: usize) -> DmaBuf {
        DmaBuf {
            addr: self.rbuf.addr + j as u64 * PIECE,
            len: PIECE,
        }
    }

    /// One read batch; checks every piece against the pattern.
    async fn read(&mut self, at: &[u32; PIECES], wrong: &Wrong) -> Option<&'static str> {
        let ios: [(u64, DmaBuf); PIECES] =
            std::array::from_fn(|j| (at[j] as u64 * PIECE, self.piece(j)));
        if let Err(e) = self.region.read_into_many(&ios).await {
            return Some(variant(&e));
        }
        let len = PIECES * PIECE as usize;
        self.dev
            .read_mem_into(self.rbuf.addr, &mut self.scratch[..len])
            .expect("read the landing buffer");
        for (j, &(off, _)) in ios.iter().enumerate() {
            let got = &self.scratch[j * PIECE as usize..(j + 1) * PIECE as usize];
            if let Some(bad) = check_pattern(off, got) {
                wrong.fail(format!("region byte {bad}: wrong after a batched read"));
            }
        }
        None
    }

    /// One stripe write of the pattern.
    async fn write(&mut self, stripe: u32, stripe_bytes: u64) -> Option<&'static str> {
        let off = stripe as u64 * stripe_bytes;
        let len = stripe_bytes as usize;
        fill_pattern(off, &mut self.scratch[..len]);
        self.dev
            .write_mem(self.wbuf.addr, &self.scratch[..len])
            .expect("fill the write buffer");
        self.region
            .write_from(off, self.wbuf)
            .await
            .err()
            .map(|e| variant(&e))
    }
}

/// Boots the cluster, allocates and fills the region, maps it on every
/// client and warms the clients up. With `flip_stored_byte`, one byte of a
/// stripe that no script writes is flipped after the fill.
pub fn setup(
    spec: &RegionSpec,
    seed: u64,
    ledger: bool,
    flip_stored_byte: bool,
) -> (RegionEnv, SetupTimes, CtrlLatency) {
    assert!(spec.region_bytes.is_multiple_of(BULK) && BULK.is_multiple_of(spec.stripe));
    let mut clock = PhaseClock::start();
    let cluster = Rc::new(
        Cluster::boot(ClusterConfig {
            clients: spec.clients,
            client: ClientConfig {
                ledger,
                ..ClientConfig::default()
            },
            ..ClusterConfig::with_servers(spec.servers)
        })
        .expect("boot the cluster"),
    );
    let sim = cluster.sim.clone();
    let boot_s = clock.lap();

    let scripts = Rc::new(draw_scripts(spec, seed));
    let opts = AllocOptions {
        stripe_size: spec.stripe,
        replicas: spec.replicas,
        ..AllocOptions::default()
    };
    let (bytes, stripe) = (spec.region_bytes, spec.stripe);
    let alloc_ns = sim.block_on({
        let (cluster, sim, scripts) = (cluster.clone(), sim.clone(), scripts.clone());
        async move {
            let loader = cluster.client(0).await.expect("connect the loader");
            let t0 = sim.now();
            let region = loader
                .alloc(REGION, bytes, opts)
                .await
                .expect("alloc the region");
            let alloc_ns = (sim.now() - t0).as_nanos() as u64;
            let dev = loader.device().clone();
            let buf = dev.alloc(BULK).expect("a load buffer");
            let mut scratch = vec![0u8; BULK as usize];
            for off in (0..bytes).step_by(BULK as usize) {
                fill_pattern(off, &mut scratch);
                dev.write_mem(buf.addr, &scratch)
                    .expect("fill the load buffer");
                region.write_from(off, buf).await.expect("load the region");
            }
            dev.free(buf).expect("free the load buffer");
            if flip_stored_byte {
                let written: std::collections::HashSet<u32> = scripts
                    .iter()
                    .flatten()
                    .filter(|op| op.write)
                    .map(|op| op.at[0])
                    .collect();
                let victim = (0..(bytes / stripe) as u32)
                    .find(|s| !written.contains(s))
                    .expect("some stripe is never rewritten");
                let at = victim as u64 * stripe + 104;
                let mut b = [0u8; 8];
                fill_pattern(at, &mut b);
                region
                    .write(at, &[b[0] ^ 0x01])
                    .await
                    .expect("flip a stored byte");
            }
            alloc_ns
        }
    });
    let load_s = clock.lap();

    let (clients, map_ns) = sim.block_on({
        let (cluster, sim) = (cluster.clone(), sim.clone());
        let n = spec.clients;
        async move {
            let mut clients = Vec::with_capacity(n);
            let mut map_ns = Vec::with_capacity(n);
            for i in 0..n {
                let client = cluster.client(i).await.expect("connect a client");
                let t0 = sim.now();
                let region = client.map(REGION).await.expect("map the region");
                map_ns.push((sim.now() - t0).as_nanos() as f64);
                let dev = client.device().clone();
                clients.push(Client {
                    region,
                    rbuf: dev.alloc(PIECES as u64 * PIECE).expect("a read buffer"),
                    wbuf: dev.alloc(stripe).expect("a write buffer"),
                    dev,
                    scratch: vec![0u8; (PIECES as u64 * PIECE).max(stripe) as usize],
                });
            }
            (clients, stats::median(&map_ns) as u64)
        }
    });
    let open_s = clock.lap();

    let wrong = Rc::new(Wrong::default());
    // Warm-up: read batches from each client's own script dial its QPs to
    // every server the region spans.
    let clients = sim.block_on({
        let (sim, scripts, wrong) = (sim.clone(), scripts.clone(), wrong.clone());
        let warmup = spec.warmup_reads;
        async move {
            let tasks: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(c, mut client)| {
                    let (scripts, wrong) = (scripts.clone(), wrong.clone());
                    sim.spawn(async move {
                        let reads = scripts[c].iter().filter(|op| !op.write).take(warmup);
                        for op in reads {
                            // Warm-up failures only cost warm-up time.
                            let _ = client.read(&op.at, &wrong).await;
                        }
                        client
                    })
                })
                .collect();
            sim::join_all(tasks).await
        }
    });
    let warmup_s = clock.lap();

    let env = RegionEnv {
        spec: spec.clone(),
        sim,
        cluster,
        clients,
        scripts,
        wrong,
    };
    let times = SetupTimes {
        boot_s,
        load_s,
        open_s,
        warmup_s,
    };
    (env, times, CtrlLatency { alloc_ns, map_ns })
}

/// Runs the measured window: every client's script, all clients at once.
pub fn run_window(env: &mut RegionEnv, segments: u64) -> Window {
    let total = (env.spec.clients * env.spec.ops_per_client) as u64;
    env.cluster.client_devs[0].metrics().reset();
    let progress = Progress::new(total, segments);
    let rss_before = host::rss_kb() as i64;
    let allocs_before = host::allocs();
    let clients = std::mem::take(&mut env.clients);
    let stripe = env.spec.stripe;
    let (v_ns, results) = env.sim.block_on({
        let (sim, scripts, wrong, progress) = (
            env.sim.clone(),
            env.scripts.clone(),
            env.wrong.clone(),
            progress.clone(),
        );
        async move {
            let t0 = sim.now();
            let tasks: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(c, mut client)| {
                    let (sim, scripts, wrong, progress) = (
                        sim.clone(),
                        scripts.clone(),
                        wrong.clone(),
                        progress.clone(),
                    );
                    sim.clone().spawn(async move {
                        let script = &scripts[c];
                        let mut spans = Vec::with_capacity(script.len());
                        for op in script {
                            let start = sim.now();
                            let (kind, bytes, err) = if op.write {
                                (Kind::Write, stripe, client.write(op.at[0], stripe).await)
                            } else {
                                let err = client.read(&op.at, &wrong).await;
                                (Kind::Read, PIECES as u64 * PIECE, err)
                            };
                            spans.push(Span {
                                kind,
                                client: c as u32,
                                start_ns: start.as_nanos(),
                                end_ns: sim.now().as_nanos(),
                                bytes: bytes as u32,
                                err,
                            });
                            progress.tick();
                        }
                        (client, spans)
                    })
                })
                .collect();
            let results = sim::join_all(tasks).await;
            ((sim.now() - t0).as_nanos() as u64, results)
        }
    });
    let marks = progress.finish();
    let allocs = host::allocs() - allocs_before;
    let rss_growth_kb = host::rss_kb() as i64 - rss_before;
    let mut spans = Vec::with_capacity(total as usize);
    for (client, s) in results {
        env.clients.push(client);
        spans.extend(s);
    }
    Window {
        spans,
        v_ns,
        marks,
        allocs,
        rss_growth_kb,
    }
}

/// After the window: the whole region still holds its pattern. Also folds
/// in every wrong result seen during warm-up and the window.
pub fn verify(env: &RegionEnv) -> Result<(), String> {
    let (bytes, wrong) = (env.spec.region_bytes, env.wrong.clone());
    let client = env.clients.first().expect("at least one client");
    let (region, dev) = (client.region.clone(), client.dev.clone());
    env.sim.block_on(async move {
        let buf = dev.alloc(BULK).expect("a verification buffer");
        let mut scratch = vec![0u8; BULK as usize];
        let metrics = dev.metrics();
        for off in (0..bytes).step_by(BULK as usize) {
            // The registry keeps every latency sample; verification's own
            // samples are of no use, so they are dropped as they come.
            metrics.reset();
            if let Err(e) = region.read_into(off, buf).await {
                wrong.fail(format!("verification read at {off} failed: {e}"));
                continue;
            }
            dev.read_mem_into(buf.addr, &mut scratch)
                .expect("read the verification buffer");
            if let Some(bad) = check_pattern(off, &scratch) {
                wrong.fail(format!("region byte {bad}: wrong after the window"));
            }
        }
        dev.free(buf).expect("free the verification buffer");
        wrong.result()
    })
}

/// The cluster, for reading the program's counters and gauges.
pub fn cluster(env: &RegionEnv) -> &Cluster {
    &env.cluster
}
