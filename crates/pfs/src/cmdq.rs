//! NCQ-style per-I/O-node command queues.
//!
//! When `MachineConfig::io_queue_depth > 1` (and no buffer cache is
//! configured), the file system routes disk work through one queue
//! daemon per I/O node instead of reserving the node's FIFO
//! [`iosim_simkit::sync::Resource`] at booking time. The booking path
//! submits a [`DiskCommand`] carrying the request's network-arrival
//! instant and its sorted local runs; the daemon holds arrived commands
//! in a flat [`CmdRing`] (slots addressed by submission sequence,
//! tombstone removal — no per-dispatch allocation or `Vec::remove`
//! shifting), dispatches whenever a disk server frees up, and picks the
//! next command with the bounded-window elevator policy shared with
//! [`iosim_machine::pick_command`] — so commands from different ranks
//! can be serviced out of FIFO order when that turns a seek into a
//! sequential head continuation. The window is the configured queue
//! depth and a command bypassed [`iosim_machine::STARVATION_BOUND`]
//! times is dispatched unconditionally.
//!
//! Like the legacy `Resource` path, service is *virtual*: a dispatch
//! computes the completion instant analytically (multi-disk nodes are a
//! min-heap of server free times, the head position is shared per node)
//! and resolves the command's [`Event`] immediately, so submitters
//! sleep until the completion instant without the daemon blocking for
//! the service duration. All scheduling decisions feed the
//! [`QueueCounters`] of the run's trace collector.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
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
    // Virtual free instants of the node's disks (min-heap): a dispatch
    // occupies the earliest-free server, exactly like the capacity-N
    // FIFO `Resource` the legacy path books.
    let mut free: BinaryHeap<Reverse<SimTime>> = (0..m.cfg().disks_per_io_node)
        .map(|_| Reverse(SimTime::ZERO))
        .collect();
    // All queued commands, in the flat ring; submission order is the
    // ring's sequence order. The payload carries what the dispatch needs
    // beyond the scheduling key: the runs and the completion event.
    type Payload = (CmdRuns, Event<SimTime>);
    let mut ring: CmdRing<Payload> = CmdRing::new();
    let mut head: Option<(u64, u64)> = None;
    let push = |ring: &mut CmdRing<Payload>, cmd: DiskCommand| {
        let first = cmd.runs.as_slice()[0].0;
        ring.push(cmd.arrival, cmd.uid, first, (cmd.runs, cmd.done));
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
        let server_free = free.peek().expect("at least one disk").0;
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
            .pick(head, now, depth)
            .expect("min-arrival command has arrived");
        let (runs, done) = picked.payload;
        let runs = runs.as_slice();
        let prev_end = match head {
            Some((huid, hend)) if huid == picked.uid => Some(hend),
            _ => None,
        };
        let end = now + m.disk_service_runs(node, prev_end, runs);
        free.pop();
        free.push(Reverse(end));
        let (last_off, last_len) = *runs.last().expect("runs non-empty");
        head = Some((picked.uid, last_off + last_len));
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
