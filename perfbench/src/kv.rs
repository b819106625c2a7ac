//! The KV workloads: a closed loop of `get`/`put` against one `KvTable`
//! shared by every client machine.

use std::cell::Cell;
use std::rc::Rc;

use rstore::{ClientConfig, Cluster, ClusterConfig, KvConfig, KvTable};
use sim::{DetRng, Sim};
use workload::Zipf;

use crate::payload::{self, check_value, key, stamp, stamp_origin, value, LOADER_STAMP};
use crate::window::{
    variant, CtrlLatency, Kind, PhaseClock, Progress, SetupTimes, Span, Window, Wrong,
};
use crate::{host, stats};

/// Slot size: 16-byte header + 8-byte key + 64-byte value fit with room.
const SLOT_BYTES: u64 = 128;
const MAX_PROBE: u64 = 64;
const TABLE: &str = "perfbench";
/// Keys per `multi_get` in the final verification pass.
const VERIFY_BATCH: usize = 1024;

/// One KV workload's shape.
#[derive(Clone, Debug)]
pub struct KvSpec {
    /// Memory servers.
    pub servers: usize,
    /// Client machines, one closed-loop task each.
    pub clients: usize,
    /// Keys loaded before the window (ids `0..keys`).
    pub keys: u64,
    /// Table buckets.
    pub buckets: u64,
    /// Zipf skew of the key choice; `None` draws keys uniformly.
    pub theta: Option<f64>,
    /// Share of ops that are gets.
    pub get_frac: f64,
    /// Measured ops per client.
    pub ops_per_client: usize,
    /// Warm-up gets per client (its script's first distinct keys).
    pub warmup_gets: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct KvOp {
    put: bool,
    id: u32,
}

/// A set-up KV cluster, ready for its measured window.
pub struct KvEnv {
    spec: KvSpec,
    sim: Sim,
    cluster: Rc<Cluster>,
    tables: Vec<KvTable>,
    scripts: Rc<Vec<Vec<KvOp>>>,
    wrong: Rc<Wrong>,
}

/// Draws every client's script from one sampler in client order, so the
/// access pattern does not depend on how tasks interleave.
fn draw_scripts(spec: &KvSpec, seed: u64) -> Vec<Vec<KvOp>> {
    let mut rng = DetRng::new(seed ^ 0x6b76_6f70);
    let mut zipf = spec.theta.map(|t| Zipf::new(spec.keys as usize, t, seed));
    (0..spec.clients)
        .map(|_| {
            (0..spec.ops_per_client)
                .map(|_| {
                    let put = !rng.chance(spec.get_frac);
                    let id = match zipf.as_mut() {
                        Some(z) => z.next() as u64,
                        None => rng.range_u64(0, spec.keys),
                    };
                    KvOp { put, id: id as u32 }
                })
                .collect()
        })
        .collect()
}

/// Boots the cluster, loads every key, opens one handle per client and
/// warms them up. With `flip_stored_byte`, one stored value that no script
/// overwrites gets a flipped byte after loading (the correctness self-test).
pub fn setup(
    spec: &KvSpec,
    seed: u64,
    ledger: bool,
    flip_stored_byte: bool,
) -> (KvEnv, SetupTimes, CtrlLatency) {
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
    let (keys, buckets) = (spec.keys, spec.buckets);
    let alloc_ns = sim.block_on({
        let (cluster, sim, scripts) = (cluster.clone(), sim.clone(), scripts.clone());
        async move {
            let creator = cluster.client(0).await.expect("connect the loader");
            let t0 = sim.now();
            let table = KvTable::create(
                &creator,
                TABLE,
                KvConfig {
                    buckets,
                    slot_bytes: SLOT_BYTES,
                    max_probe: MAX_PROBE,
                    ..KvConfig::default()
                },
            )
            .await
            .expect("create the table");
            let alloc_ns = (sim.now() - t0).as_nanos() as u64;
            let loaded = table
                .bulk_load((0..keys).map(|id| (key(id), value(id, LOADER_STAMP))))
                .await
                .expect("load the table");
            assert_eq!(loaded, keys, "the load must cover the key space");
            if flip_stored_byte {
                let written: std::collections::HashSet<u32> = scripts
                    .iter()
                    .flatten()
                    .filter(|op| op.put)
                    .map(|op| op.id)
                    .collect();
                let victim = (0..keys)
                    .find(|id| !written.contains(&(*id as u32)))
                    .expect("some key is never overwritten");
                let mut bad = value(victim, LOADER_STAMP);
                bad[20] ^= 0x01;
                table
                    .put(&key(victim), &bad)
                    .await
                    .expect("flip a stored byte");
            }
            alloc_ns
        }
    });
    let load_s = clock.lap();

    let (tables, map_ns) = sim.block_on({
        let (cluster, sim) = (cluster.clone(), sim.clone());
        let clients = spec.clients;
        async move {
            let mut tables = Vec::with_capacity(clients);
            let mut map_ns = Vec::with_capacity(clients);
            for i in 0..clients {
                let client = cluster.client(i).await.expect("connect a client");
                let t0 = sim.now();
                let table = KvTable::open(&client, TABLE, SLOT_BYTES, MAX_PROBE)
                    .await
                    .expect("open the table");
                map_ns.push((sim.now() - t0).as_nanos() as f64);
                tables.push(table);
            }
            (tables, stats::median(&map_ns) as u64)
        }
    });
    let open_s = clock.lap();

    let wrong = Rc::new(Wrong::default());
    // Warm-up: each client reads the first keys its script will touch, which
    // dials its QPs and seeds its hint cache with keys it is about to use.
    let tables = sim.block_on({
        let (sim, scripts, wrong) = (sim.clone(), scripts.clone(), wrong.clone());
        let warmup = spec.warmup_gets;
        async move {
            let tasks: Vec<_> = tables
                .into_iter()
                .enumerate()
                .map(|(c, table)| {
                    let (scripts, wrong) = (scripts.clone(), wrong.clone());
                    sim.spawn(async move {
                        let mut seen = std::collections::HashSet::new();
                        let ids = scripts[c]
                            .iter()
                            .map(|op| op.id)
                            .filter(|id| seen.insert(*id));
                        for id in ids.take(warmup) {
                            let id = id as u64;
                            match table.get(&key(id)).await {
                                Ok(Some(v)) => {
                                    if let Err(e) = check_value(id, &v) {
                                        wrong.fail(e);
                                    }
                                }
                                Ok(None) => wrong.fail(format!("key {id}: missing at warm-up")),
                                // Warm-up failures only cost warm-up time.
                                Err(_) => {}
                            }
                        }
                        table
                    })
                })
                .collect();
            sim::join_all(tasks).await
        }
    });
    let warmup_s = clock.lap();

    let env = KvEnv {
        spec: spec.clone(),
        sim,
        cluster,
        tables,
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

/// Checks a value returned by a get during the window: well formed, and
/// written either by the loader or by a put of this key that had started.
fn check_read(
    id: u64,
    got: &[u8],
    scripts: &[Vec<KvOp>],
    started: &[Cell<usize>],
) -> Result<(), String> {
    let stamp = check_value(id, got)?;
    match stamp_origin(stamp) {
        None => Ok(()),
        Some((w, i)) => {
            let op = scripts.get(w).and_then(|s| s.get(i));
            if op
                != Some(&KvOp {
                    put: true,
                    id: id as u32,
                })
            {
                return Err(format!("key {id}: stamp {stamp:#x} names no put of it"));
            }
            if started.get(w).is_none_or(|s| s.get() <= i) {
                return Err(format!("key {id}: value of a put that had not started"));
            }
            Ok(())
        }
    }
}

async fn client_loop(
    c: usize,
    table: KvTable,
    sim: Sim,
    scripts: Rc<Vec<Vec<KvOp>>>,
    started: Rc<Vec<Cell<usize>>>,
    progress: Rc<Progress>,
    wrong: Rc<Wrong>,
) -> (KvTable, Vec<Span>) {
    let script = &scripts[c];
    let mut spans = Vec::with_capacity(script.len());
    for (idx, op) in script.iter().enumerate() {
        started[c].set(idx + 1);
        let id = op.id as u64;
        let k = key(id);
        let start = sim.now();
        let (kind, err) = if op.put {
            let v = value(id, stamp(c, idx));
            (Kind::Put, table.put(&k, &v).await.err())
        } else {
            let err = match table.get(&k).await {
                Ok(Some(v)) => {
                    if let Err(e) = check_read(id, &v, &scripts, &started) {
                        wrong.fail(e);
                    }
                    None
                }
                Ok(None) => {
                    wrong.fail(format!("key {id}: missing"));
                    None
                }
                Err(e) => Some(e),
            };
            (Kind::Get, err)
        };
        spans.push(Span {
            kind,
            client: c as u32,
            start_ns: start.as_nanos(),
            end_ns: sim.now().as_nanos(),
            bytes: payload::VALUE_BYTES as u32,
            err: err.as_ref().map(variant),
        });
        progress.tick();
    }
    (table, spans)
}

/// Runs the measured window: every client's script, all clients at once.
pub fn run_window(env: &mut KvEnv, segments: u64) -> Window {
    let total = (env.spec.clients * env.spec.ops_per_client) as u64;
    let started: Rc<Vec<Cell<usize>>> =
        Rc::new((0..env.spec.clients).map(|_| Cell::new(0)).collect());
    env.cluster.client_devs[0].metrics().reset();
    let progress = Progress::new(total, segments);
    let rss_before = host::rss_kb() as i64;
    let allocs_before = host::allocs();
    let tables = std::mem::take(&mut env.tables);
    let (v_ns, results) = env.sim.block_on({
        let (sim, scripts, wrong, progress) = (
            env.sim.clone(),
            env.scripts.clone(),
            env.wrong.clone(),
            progress.clone(),
        );
        async move {
            let t0 = sim.now();
            let tasks: Vec<_> = tables
                .into_iter()
                .enumerate()
                .map(|(c, table)| {
                    sim.spawn(client_loop(
                        c,
                        table,
                        sim.clone(),
                        scripts.clone(),
                        started.clone(),
                        progress.clone(),
                        wrong.clone(),
                    ))
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
    for (table, s) in results {
        env.tables.push(table);
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

/// After the window: every key is present and holds a well-formed value
/// from the loader or from one of its own puts. Also folds in every wrong
/// result seen during warm-up and the window.
pub fn verify(env: &KvEnv) -> Result<(), String> {
    let (keys, scripts, wrong) = (env.spec.keys, env.scripts.clone(), env.wrong.clone());
    let every_op_started: Vec<Cell<usize>> = scripts.iter().map(|s| Cell::new(s.len())).collect();
    let cluster = env.cluster.clone();
    env.sim.block_on(async move {
        let client = cluster.client(0).await.expect("connect the verifier");
        let table = KvTable::open(&client, TABLE, SLOT_BYTES, MAX_PROBE)
            .await
            .expect("open the table to verify");
        let ids: Vec<u64> = (0..keys).collect();
        let metrics = client.device().metrics();
        for chunk in ids.chunks(VERIFY_BATCH) {
            // The registry keeps every latency sample; verification's own
            // samples are of no use, so they are dropped as they come.
            metrics.reset();
            let ks: Vec<[u8; payload::KEY_BYTES]> = chunk.iter().map(|&id| key(id)).collect();
            let refs: Vec<&[u8]> = ks.iter().map(|k| &k[..]).collect();
            // A structured error here leaves the chunk unverified; a retry
            // settles transient ones, a persistent one fails the run.
            let mut got = table.multi_get(&refs).await;
            for _ in 0..2 {
                if got.is_ok() {
                    break;
                }
                got = table.multi_get(&refs).await;
            }
            let got = match got {
                Ok(got) => got,
                Err(e) => {
                    wrong.fail(format!("verification multi_get failed: {e}"));
                    continue;
                }
            };
            for (&id, v) in chunk.iter().zip(got) {
                match v {
                    Some(v) => {
                        if let Err(e) = check_read(id, &v, &scripts, &every_op_started) {
                            wrong.fail(e);
                        }
                    }
                    None => wrong.fail(format!("key {id}: missing after the window")),
                }
            }
        }
        wrong.result()
    })
}

/// The cluster, for reading the program's counters and gauges.
pub fn cluster(env: &KvEnv) -> &Cluster {
    &env.cluster
}
