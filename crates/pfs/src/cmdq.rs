//! NCQ-style per-I/O-node command queues.
//!
//! When `MachineConfig::io_queue_depth > 1` (and no buffer cache is
//! configured), the file system routes disk work through one queue
//! daemon per I/O node instead of reserving the node's disk queue in
//! arrival order at booking time. The booking path
//! submits a [`DiskCommand`] carrying the request's network-arrival
//! instant and its sorted local runs; the daemon holds arrived commands
//! in a [`CmdRing`] (a `VecDeque` addressed by submission sequence,
//! tombstone removal — no per-dispatch allocation or `Vec::remove`
//! shifting), dispatches whenever a disk server frees up, and picks the
//! next command with the bounded-window elevator policy shared with
//! [`iosim_machine::pick_command`] — so commands from different ranks
//! can be serviced out of FIFO order when that turns a seek into a
//! sequential head continuation. The window is the configured queue
//! depth and a command bypassed [`iosim_machine::STARVATION_BOUND`]
//! times is dispatched unconditionally.
//!
//! The daemon schedules; it does not model the disks itself. It picks
//! against the node's one head, [`Machine::disk_head`], and a dispatch
//! books the command through [`Machine::book_disk`] — the same head,
//! pricing and capacity-N queue the direct path and the buffer cache
//! use — so the node's disks, their statistics and the file system's
//! report are one model whichever path runs. Service is *virtual*: the
//! booking returns the completion instant and the daemon resolves the
//! command's [`Event`] immediately, so submitters sleep until the
//! completion instant without the daemon blocking for the service
//! duration. All scheduling decisions feed the [`QueueCounters`] of the
//! run's trace collector.

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use iosim_machine::{CmdRing, Machine};
use iosim_simkit::executor::Sleep;
use iosim_simkit::sync::{channel, Event, Receiver, Recv, Sender};
use iosim_simkit::time::SimTime;
use iosim_trace::QueueCounters;

/// One disk command submitted to an I/O node's queue.
pub(crate) struct DiskCommand {
    /// Instant the request reaches the node over the network; the
    /// command is not eligible for dispatch before it.
    pub arrival: SimTime,
    /// File identity (head continuations exist only within one file).
    pub uid: u64,
    /// Sorted, merged `(local_offset, bytes)` runs serviced in order.
    pub runs: CmdRuns,
    /// Resolved with the command's completion instant at dispatch.
    pub done: Event<SimTime>,
}

/// The local runs of one command. A contiguous request's command has a
/// single run, kept inline so the booking path does not allocate.
pub(crate) enum CmdRuns {
    One((u64, u64)),
    Many(Vec<(u64, u64)>),
}

impl CmdRuns {
    pub fn as_slice(&self) -> &[(u64, u64)] {
        match self {
            CmdRuns::One(run) => std::slice::from_ref(run),
            CmdRuns::Many(runs) => runs,
        }
    }
}

impl From<&[(u64, u64)]> for CmdRuns {
    fn from(runs: &[(u64, u64)]) -> CmdRuns {
        match runs {
            [run] => CmdRuns::One(*run),
            _ => CmdRuns::Many(runs.to_vec()),
        }
    }
}

/// The per-node command queues of one file system.
pub(crate) struct CommandQueues {
    senders: Vec<Sender<DiskCommand>>,
    counters: QueueCounters,
}

impl CommandQueues {
    /// Spawn one queue daemon per I/O node of `machine`. The daemons
    /// live for the whole simulation; they park on their channel when
    /// idle and are dropped with the simulation.
    pub fn new(machine: &Rc<Machine>, counters: QueueCounters) -> CommandQueues {
        let depth = machine.io_queue_depth();
        let senders = (0..machine.io_nodes())
            .map(|node| {
                let (tx, rx) = channel();
                let m = Rc::clone(machine);
                let c = counters.clone();
                machine.handle().spawn(node_daemon(m, node, depth, rx, c));
                tx
            })
            .collect();
        CommandQueues { senders, counters }
    }

    /// Submit one command to `node`'s queue, counting the booking.
    pub fn submit(&self, node: usize, cmd: DiskCommand) {
        debug_assert!(!cmd.runs.as_slice().is_empty(), "empty command");
        self.counters.add_booking(node);
        self.senders[node].send(cmd);
    }
}

/// The queue daemon of one I/O node.
async fn node_daemon(
    m: Rc<Machine>,
    node: usize,
    depth: usize,
    rx: Receiver<DiskCommand>,
    counters: QueueCounters,
) {
    let h = m.handle().clone();
    let disks = m.io_queue(node);
    // All queued commands, in the flat ring; submission order is the
    // ring's sequence order. The payload carries what the dispatch needs
    // beyond the scheduling key: the arrival, the runs and the
    // completion event.
    type Payload = (SimTime, CmdRuns, Event<SimTime>);
    let mut ring: CmdRing<Payload> = CmdRing::new();
    let push = |ring: &mut CmdRing<Payload>, cmd: DiskCommand| {
        let first = cmd.runs.as_slice()[0].0;
        ring.push(
            cmd.arrival,
            cmd.uid,
            first,
            (cmd.arrival, cmd.runs, cmd.done),
        );
    };
    loop {
        while let Some(cmd) = rx.try_recv() {
            push(&mut ring, cmd);
        }
        if ring.is_empty() {
            // Park until the next submission (or the end of the sim).
            match rx.recv().await {
                Some(cmd) => push(&mut ring, cmd),
                None => return,
            }
            continue;
        }
        // The next dispatch can happen no earlier than a server freeing
        // up and a queued command's request arriving at the node.
        let server_free = disks.earliest_free();
        let min_arrival = ring.min_arrival().expect("non-empty ring");
        let start_at = server_free.max(min_arrival);
        let now = h.now();
        if start_at > now {
            // Sleep to the dispatch instant, waking early on a new
            // submission (it may make an earlier dispatch possible).
            if let Wake::Cmd(cmd) = recv_or_deadline(&rx, h.sleep_until(start_at)).await {
                push(&mut ring, cmd);
            }
            continue;
        }
        // Dispatch one command from the arrived set (non-empty: the
        // min-arrival command has arrived).
        let picked = ring
            .pick(m.disk_head(node), now, depth)
            .expect("min-arrival command has arrived");
        let (arrival, runs, done) = picked.payload;
        // The picked command has arrived and a disk is free by `now`,
        // and one of the two happened exactly then, so the booking
        // starts now.
        let (start, end) = m.book_disk(node, picked.uid, runs.as_slice(), arrival);
        debug_assert_eq!(start, now, "dispatch starts at the dispatch instant");
        counters.add_dispatch(
            node,
            picked.arrived,
            picked.reordered,
            picked.starvation_forced,
            picked.seek_avoided,
            picked.seek_bytes_saved,
        );
        done.set(end);
    }
}

/// What woke the daemon first: a submission or the dispatch deadline.
enum Wake<T> {
    Cmd(T),
    Deadline,
}

/// Await whichever happens first: the next channel message or a sleep
/// deadline. Both component futures are plain `Unpin` state machines, so
/// polling them side by side is safe.
fn recv_or_deadline<'a, T>(rx: &'a Receiver<T>, sleep: Sleep) -> RecvOrDeadline<'a, T> {
    RecvOrDeadline {
        recv: rx.recv(),
        sleep,
    }
}

struct RecvOrDeadline<'a, T> {
    recv: Recv<'a, T>,
    sleep: Sleep,
}

impl<T> Future for RecvOrDeadline<'_, T> {
    type Output = Wake<T>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Wake<T>> {
        let this = self.get_mut();
        // A closed channel (senders gone) is not a wake-up: the daemon
        // still owes its queued commands, so wait for the deadline.
        if let Poll::Ready(Some(cmd)) = Pin::new(&mut this.recv).poll(cx) {
            return Poll::Ready(Wake::Cmd(cmd));
        }
        match Pin::new(&mut this.sleep).poll(cx) {
            Poll::Ready(()) => Poll::Ready(Wake::Deadline),
            Poll::Pending => Poll::Pending,
        }
    }
}
