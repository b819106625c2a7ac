//! The isolation ladder: host cost of one call into each layer, measured
//! alone on a one-client setup, from the bottom up (sim → fabric → rdma →
//! region/kv). A layer's host self-cost is its rung minus the rung below.

use std::rc::Rc;
use std::time::Duration;

use fabric::{Fabric, FabricConfig};
use rdma::{Access, CompletionQueue, RdmaConfig, RdmaDevice};
use rstore::{AllocOptions, Cluster, ClusterConfig, KvConfig, KvTable};
use sim::Sim;

use crate::metrics::REF_NOMINAL_NS;
use crate::{host, payload, stats};

/// Timed batches per rung (the reported cost is their median).
const BATCHES: usize = 9;

/// Host cost of one call into a layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rung {
    /// Median over batches of thread CPU ns per call (scaled, once
    /// measured).
    pub host_ns: f64,
    /// Heap allocations per call over all timed batches.
    pub allocs: f64,
}

/// Every rung, plus the virtual latency of the bare verb.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ladder {
    /// `Sim::spawn` + `sleep` + join.
    pub sim_task: Rung,
    /// `Fabric::send` + receive.
    pub fabric_msg: Rung,
    /// Bare `Qp::post_read` of 4 KiB + CQ poll.
    pub rdma_read4k: Rung,
    /// Virtual µs of that READ.
    pub rdma_read4k_vus: f64,
    /// `Region::read_into` of 4 KiB.
    pub region_read_into: Rung,
    /// Warm `KvTable::get`.
    pub kv_get: Rung,
    /// Warm `KvTable::put`.
    pub kv_put: Rung,
}

/// Runs `call` for a warm-up batch and then `BATCHES` timed batches of
/// `per_batch` calls each, all inside one `block_on` on `sim`.
fn rung<F, Fut>(sim: &Sim, per_batch: usize, call: F) -> Rung
where
    F: Fn(u64) -> Fut + 'static,
    Fut: std::future::Future<Output = ()> + 'static,
{
    sim.block_on(async move {
        let mut i = 0u64;
        for _ in 0..per_batch {
            call(i).await;
            i += 1;
        }
        let mut per_call = Vec::with_capacity(BATCHES);
        let allocs_before = host::allocs();
        for _ in 0..BATCHES {
            let t0 = host::thread_cpu_ns();
            for _ in 0..per_batch {
                call(i).await;
                i += 1;
            }
            per_call.push((host::thread_cpu_ns() - t0) as f64 / per_batch as f64);
        }
        Rung {
            host_ns: stats::median(&per_call),
            allocs: (host::allocs() - allocs_before) as f64 / (BATCHES * per_batch) as f64,
        }
    })
}

fn sim_rung() -> Rung {
    let sim = Sim::new();
    let s = sim.clone();
    rung(&sim, 20_000, move |_| {
        let s2 = s.clone();
        s.spawn(async move { s2.sleep(Duration::from_nanos(100)).await })
    })
}

fn fabric_rung() -> Rung {
    let sim = Sim::new();
    let fabric: Fabric<u64> = Fabric::new(sim.clone(), FabricConfig::default());
    let (a, b) = (fabric.add_node(), fabric.add_node());
    let rx = Rc::new(std::cell::RefCell::new(fabric.attach(b)));
    // Calls run one at a time, so no other borrow of `rx` can be live
    // while one waits for its message.
    #[allow(clippy::await_holding_refcell_ref)]
    rung(&sim, 20_000, move |i| {
        fabric.send(a, b, 64, i);
        let rx = rx.clone();
        async move {
            let got = rx.borrow_mut().recv().await.expect("the message arrives");
            assert_eq!(got.msg, i);
        }
    })
}

/// Two machines and one connected RC queue pair, as in the verbs tests.
fn rdma_rung() -> (Rung, f64) {
    let sim = Sim::new();
    let fabric = Fabric::new(sim.clone(), FabricConfig::default());
    let server = RdmaDevice::new(&fabric, RdmaConfig::default());
    let client = RdmaDevice::new(&fabric, RdmaConfig::default());
    let (qp, cq, local, target) = sim.block_on(async move {
        let remote = server.alloc(1 << 20).expect("server memory");
        let mr = server
            .reg_mr(remote, Access::REMOTE_READ | Access::REMOTE_WRITE)
            .expect("register");
        let mut listener = server.listen(1).expect("listen");
        let scq = CompletionQueue::new();
        server
            .sim()
            .spawn(async move { listener.accept(&scq).await.expect("accept") });
        let cq = Rc::new(CompletionQueue::new());
        let qp = client.connect(mr.node, 1, &cq).await.expect("connect");
        let local = client.alloc(4096).expect("client memory");
        let target = mr.token().at(0, 4096).expect("in range");
        (Rc::new(qp), cq, local, target)
    });
    let t0 = sim.now();
    let r = rung(&sim, 5_000, move |i| {
        qp.post_read(i, local, target).expect("post");
        let cq = cq.clone();
        async move {
            assert!(cq.next().await.status.is_ok(), "READ completes");
        }
    });
    let calls = ((BATCHES + 1) * 5_000) as f64;
    let vus = (sim.now() - t0).as_nanos() as f64 / calls / 1e3;
    (r, vus)
}

fn region_rung() -> Rung {
    let cluster = Cluster::boot(ClusterConfig::with_servers(2)).expect("boot");
    let sim = cluster.sim.clone();
    let (region, buf) = sim.block_on(async move {
        let client = cluster.client(0).await.expect("connect");
        let opts = AllocOptions {
            stripe_size: 64 * 1024,
            ..AllocOptions::default()
        };
        let region = client.alloc("ladder", 1 << 20, opts).await.expect("alloc");
        let buf = client.device().alloc(4096).expect("buffer");
        (Rc::new(region), buf)
    });
    rung(&sim, 5_000, move |i| {
        let region = region.clone();
        async move {
            let off = (i % 256) * 4096;
            region.read_into(off, buf).await.expect("read");
        }
    })
}

fn kv_rungs() -> (Rung, Rung) {
    const KEYS: u64 = 256;
    let cluster = Cluster::boot(ClusterConfig::with_servers(2)).expect("boot");
    let sim = cluster.sim.clone();
    let table = sim.block_on(async move {
        let client = cluster.client(0).await.expect("connect");
        let cfg = KvConfig {
            buckets: 4096,
            slot_bytes: 128,
            ..KvConfig::default()
        };
        let table = KvTable::create(&client, "ladder", cfg)
            .await
            .expect("create");
        for id in 0..KEYS {
            let v = payload::value(id, payload::LOADER_STAMP);
            table.put(&payload::key(id), &v).await.expect("load");
        }
        Rc::new(table)
    });
    let t = table.clone();
    let get = rung(&sim, 5_000, move |i| {
        let t = t.clone();
        async move {
            let id = i % KEYS;
            let got = t.get(&payload::key(id)).await.expect("get");
            assert!(got.is_some(), "loaded key is present");
        }
    });
    let put = rung(&sim, 5_000, move |i| {
        let t = table.clone();
        async move {
            let id = i % KEYS;
            let v = payload::value(id, payload::LOADER_STAMP);
            t.put(&payload::key(id), &v).await.expect("put");
        }
    });
    (get, put)
}

/// Measures every rung once, with host ns scaled like `host_us_per_op`
/// by reference runs taken before and after the ladder.
pub fn measure() -> Ladder {
    let before = host::reference_mean_ns(3);
    let sim_task = sim_rung();
    let fabric_msg = fabric_rung();
    let (rdma_read4k, rdma_read4k_vus) = rdma_rung();
    let region_read_into = region_rung();
    let (kv_get, kv_put) = kv_rungs();
    let after = host::reference_mean_ns(3);
    let scale = |r: Rung| Rung {
        host_ns: r.host_ns * REF_NOMINAL_NS / ((before + after) / 2.0),
        ..r
    };
    Ladder {
        sim_task: scale(sim_task),
        fabric_msg: scale(fabric_msg),
        rdma_read4k: scale(rdma_read4k),
        rdma_read4k_vus,
        region_read_into: scale(region_read_into),
        kv_get: scale(kv_get),
        kv_put: scale(kv_put),
    }
}
