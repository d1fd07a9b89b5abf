//! Rollback recovery with the coordinated checkpoint library: an
//! iterative solver checkpoints its state every few steps, "crashes", and
//! recovers from the newest committed epoch — the CLIP-style pattern the
//! paper cites for check-pointing I/O.
//!
//! ```text
//! cargo run --release --example rollback_recovery
//! ```

use std::rc::Rc;

use iosim::optim::Checkpointer;
use iosim::prelude::*;

const PROCS: usize = 8;
const STEPS: u64 = 20;
const CKPT_EVERY: u64 = 5;
const FAIL_AT: u64 = 17;

/// One rank's solver state: a vector evolved deterministically per step.
fn evolve(state: &mut [f64], step: u64) {
    for (i, v) in state.iter_mut().enumerate() {
        *v = 0.9 * *v + ((step as f64) * 0.01 + i as f64 * 1e-4).sin();
    }
}

fn state_bytes(state: &[f64]) -> Vec<u8> {
    state.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn main() {
    let result: Rc<std::cell::RefCell<Vec<String>>> = Rc::default();
    let log = Rc::clone(&result);
    iosim::apps::common::run_ranks(
        presets::paragon_large()
            .with_compute_nodes(PROCS)
            .with_io_nodes(16),
        PROCS,
        move |ctx| {
            let log = Rc::clone(&log);
            Box::pin(async move {
                let rank = ctx.rank;
                let mut ck = Checkpointer::open(ctx.comm.clone(), &ctx.fs, "solver.ck", true)
                    .await
                    .expect("open checkpointer");
                let mut state = vec![rank as f64; 512];
                let mut last_epoch_step = 0u64;

                // Run with periodic checkpoints until the injected fault.
                for step in 1..=FAIL_AT {
                    evolve(&mut state, step);
                    ctx.machine.compute(5.0e6).await;
                    if step % CKPT_EVERY == 0 {
                        ck.save(Payload::bytes(state_bytes(&state)))
                            .await
                            .expect("checkpoint");
                        last_epoch_step = step;
                    }
                }
                if rank == 0 {
                    log.borrow_mut().push(format!(
                        "fault injected at step {FAIL_AT}; last checkpoint at step {last_epoch_step}"
                    ));
                }

                // "Crash": lose the in-memory state, recover, and replay.
                state = vec![f64::NAN; 512];
                let recovered = ck.restore_latest().await.expect("restore");
                let recovered = recovered.data.expect("solver.ck is stored").flatten();
                for (v, c) in state.iter_mut().zip(recovered.chunks_exact(8)) {
                    *v = f64::from_le_bytes(c.try_into().expect("8 bytes"));
                }
                for step in last_epoch_step + 1..=STEPS {
                    evolve(&mut state, step);
                    ctx.machine.compute(5.0e6).await;
                }

                // Reference: the same run without a fault.
                let mut reference = vec![rank as f64; 512];
                for step in 1..=STEPS {
                    evolve(&mut reference, step);
                }
                assert_eq!(
                    state_bytes(&state),
                    state_bytes(&reference),
                    "rank {rank}: recovered run must equal the fault-free run"
                );
                if rank == 0 {
                    log.borrow_mut().push(format!(
                        "recovered from epoch at step {last_epoch_step}, replayed to step {STEPS}: \
                         state matches the fault-free run bit-for-bit"
                    ));
                }
                ck.close().await;
            })
        },
    );
    for line in result.borrow().iter() {
        println!("{line}");
    }
    println!("rollback recovery verified for {PROCS} ranks");
}
