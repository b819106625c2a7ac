//! E1 — raw verbs latency microbenchmark (substrate validation for the
//! paper's "close-to-hardware latency" claim).
//!
//! Two machines, one RC queue pair; mean latency of one-sided READ and
//! WRITE over message sizes from 8 B to 1 MiB.

use std::time::Duration;

use fabric::{Fabric, FabricConfig};
use rdma::{Access, CompletionQueue, RdmaConfig, RdmaDevice, Wr};
use sim::Sim;

use crate::table::{fmt_bytes, fmt_dur, Table};

const REPS: u64 = 20;

/// Runs E1.
pub fn run() -> Vec<Table> {
    let mut table = Table::new(
        "E1: raw one-sided verbs latency vs size (2 machines, RC QP)",
        &["size", "READ mean", "WRITE mean", "READ Gb/s"],
    );
    for &size in &[8u64, 64, 512, 4096, 32 * 1024, 256 * 1024, 1024 * 1024] {
        let (read, write) = measure(size);
        let gbps = size as f64 * 8.0 / read.as_secs_f64() / 1e9;
        table.row(vec![
            fmt_bytes(size),
            fmt_dur(read),
            fmt_dur(write),
            format!("{gbps:.2}"),
        ]);
    }
    table.note("paper claim C2: small-READ latency ~2us, within 2x of switch+NIC floor");
    vec![table]
}

fn measure(size: u64) -> (Duration, Duration) {
    let sim = Sim::new();
    let fabric = Fabric::new(sim.clone(), FabricConfig::default());
    let server = RdmaDevice::new(&fabric, RdmaConfig::default());
    let client = RdmaDevice::new(&fabric, RdmaConfig::default());

    sim.block_on(async move {
        let remote_buf = server.alloc(size).expect("server alloc");
        let mr = server
            .reg_mr(remote_buf, Access::REMOTE_READ | Access::REMOTE_WRITE)
            .expect("register");
        let mut listener = server.listen(1).expect("listen");
        let scq = CompletionQueue::new();
        server
            .sim()
            .spawn(async move { listener.accept(&scq).await.expect("accept") });

        let cq = CompletionQueue::new();
        let qp = client.connect(mr.node, 1, &cq).await.expect("connect");
        let local = client.alloc(size).expect("client alloc");
        let target = mr.token().at(0, size).expect("in range");

        // Warm up once each direction.
        qp.post_read(0, local, target).expect("post");
        cq.next().await;
        qp.post(&[Wr::write(0, local, target)]).expect("post");
        cq.next().await;

        let sim = client.sim().clone();
        let t0 = sim.now();
        for i in 0..REPS {
            qp.post_read(i, local, target).expect("post");
            cq.next().await;
        }
        let read = (sim.now() - t0) / REPS as u32;

        let t0 = sim.now();
        for i in 0..REPS {
            qp.post(&[Wr::write(i, local, target)]).expect("post");
            cq.next().await;
        }
        let write = (sim.now() - t0) / REPS as u32;
        (read, write)
    })
}
