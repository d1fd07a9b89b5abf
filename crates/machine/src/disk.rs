//! The disk command-queue scheduler.
//!
//! With an I/O queue depth above 1, each I/O node holds several
//! outstanding commands and [`pick_command`] chooses which to dispatch
//! next: a bounded-window elevator with a starvation bound
//! ([`STARVATION_BOUND`]). The flat [`crate::config::DiskParams`] model
//! prices whatever it picks.

/// How many times a queued command may be bypassed by a younger command
/// before the scheduler must dispatch it next (the starvation bound of
/// the NCQ-style command queue).
pub const STARVATION_BOUND: u32 = 16;

/// One queued disk command as the command-queue scheduler sees it.
#[derive(Clone, Copy, Debug)]
pub struct CommandView {
    /// File identity of the command (head continuations only exist
    /// within one file).
    pub uid: u64,
    /// First local byte offset the command touches.
    pub offset: u64,
    /// Global submission sequence number (FIFO order).
    pub seq: u64,
    /// Times a younger command was dispatched ahead of this one.
    pub bypassed: u32,
}

/// The command-queue scheduler's decision for one dispatch.
#[derive(Clone, Copy, Debug)]
pub struct SchedDecision {
    /// Index into the arrived slice of the command to dispatch.
    pub index: usize,
    /// The pick is not the FIFO head.
    pub reordered: bool,
    /// The starvation bound overrode the elevator pick.
    pub starvation_forced: bool,
    /// The pick is an exact sequential continuation of the head where
    /// the FIFO head was not (one whole seek penalty saved).
    pub seek_avoided: bool,
    /// Head travel saved versus dispatching the FIFO head (defined only
    /// when both commands address the file under the head).
    pub seek_bytes_saved: u64,
}

/// Distance from the head position to a command's first offset: only
/// defined within the file the head last serviced.
fn head_distance(head: Option<(u64, u64)>, cmd: &CommandView) -> Option<u64> {
    match head {
        Some((huid, hend)) if huid == cmd.uid => Some(cmd.offset.abs_diff(hend)),
        _ => None,
    }
}

/// Tiered elevator rank of one command against the head position: lower
/// tuples dispatch first. Tier 0 is an exact sequential continuation,
/// tier 1 same-file ahead of the head (ascending sweep, by offset),
/// tier 2 same-file behind (sweep restart, by offset), tier 3 other
/// files in FIFO order. The seq component makes every rank unique, so
/// "first minimum" and "unique minimum" coincide.
///
/// Shared by [`pick_command`] (the reference oracle over a slice) and the
/// flat [`crate::cmdring::CmdRing`] dispatch scan — keeping them
/// policy-identical by construction.
#[inline]
pub fn elevator_rank(head: Option<(u64, u64)>, uid: u64, offset: u64, seq: u64) -> (u8, u64, u64) {
    match head {
        Some((huid, hend)) if huid == uid => {
            if offset == hend {
                (0, 0, seq)
            } else if offset > hend {
                (1, offset, seq)
            } else {
                (2, offset, seq)
            }
        }
        _ => (3, seq, 0),
    }
}

/// Pick the next command to dispatch from `arrived` (commands whose
/// request has reached the node, sorted by ascending `seq`), with the
/// disk head at `head` (`(uid, end-offset)` of the last serviced
/// command, `None` when cold).
///
/// The policy is a bounded-window elevator: only the `window` oldest
/// arrived commands are eligible. Among them, an exact sequential
/// continuation of the head wins; otherwise same-file commands ahead of
/// the head (ascending sweep) by lowest offset; then same-file commands
/// behind the head (sweep restart) by lowest offset; other files go in
/// FIFO order. A command bypassed [`STARVATION_BOUND`] times is
/// dispatched unconditionally. Ties always break toward the oldest
/// command, so the schedule is deterministic.
///
/// # Panics
/// Panics if `arrived` is empty or `window` is zero.
pub fn pick_command(
    head: Option<(u64, u64)>,
    arrived: &[CommandView],
    window: usize,
) -> SchedDecision {
    assert!(!arrived.is_empty(), "nothing to dispatch");
    assert!(window > 0, "window must be at least 1");
    let eligible = &arrived[..window.min(arrived.len())];

    let elevator = (0..eligible.len())
        .min_by_key(|&i| {
            let c = &eligible[i];
            elevator_rank(head, c.uid, c.offset, c.seq)
        })
        .expect("non-empty window");

    // Starvation bound: the oldest over-bypassed command goes first.
    let starved = (0..eligible.len()).find(|&i| eligible[i].bypassed >= STARVATION_BOUND);
    let (index, starvation_forced) = match starved {
        Some(s) if s != elevator => (s, true),
        _ => (elevator, false),
    };

    let d_fifo = head_distance(head, &arrived[0]);
    let d_pick = head_distance(head, &arrived[index]);
    SchedDecision {
        index,
        reordered: index != 0,
        starvation_forced,
        seek_avoided: index != 0 && d_pick == Some(0) && d_fifo != Some(0),
        seek_bytes_saved: match (d_fifo, d_pick) {
            (Some(a), Some(b)) if index != 0 => a.saturating_sub(b),
            _ => 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(uid: u64, offset: u64, seq: u64) -> CommandView {
        CommandView {
            uid,
            offset,
            seq,
            bypassed: 0,
        }
    }

    #[test]
    fn cold_head_dispatches_fifo() {
        let q = [cmd(1, 4096, 0), cmd(1, 0, 1)];
        let d = pick_command(None, &q, 4);
        assert_eq!(d.index, 0);
        assert!(!d.reordered && !d.seek_avoided);
        assert_eq!(d.seek_bytes_saved, 0);
    }

    #[test]
    fn exact_continuation_wins_over_fifo_head() {
        // Head parked at uid 1 offset 1024; the second command continues
        // it exactly while the FIFO head would seek.
        let q = [cmd(1, 9000, 0), cmd(1, 1024, 1), cmd(1, 2048, 2)];
        let d = pick_command(Some((1, 1024)), &q, 4);
        assert_eq!(d.index, 1);
        assert!(d.reordered);
        assert!(d.seek_avoided);
        assert_eq!(d.seek_bytes_saved, 9000 - 1024);
        assert!(!d.starvation_forced);
    }

    #[test]
    fn ascending_sweep_beats_backward_and_other_files() {
        let q = [cmd(9, 0, 0), cmd(1, 512, 1), cmd(1, 4096, 2)];
        // Head at uid 1, end 1024: no exact continuation; the ascending
        // same-file command (4096) wins over the backward one (512) and
        // the other-file FIFO head.
        let d = pick_command(Some((1, 1024)), &q, 4);
        assert_eq!(d.index, 2);
        assert!(d.reordered && !d.seek_avoided);
        assert_eq!(d.seek_bytes_saved, 0); // FIFO head is another file
    }

    #[test]
    fn window_bounds_the_choice() {
        let q = [cmd(1, 9000, 0), cmd(1, 5000, 1), cmd(1, 1024, 2)];
        // The exact continuation sits outside a window of 2.
        let d = pick_command(Some((1, 1024)), &q, 2);
        assert_eq!(d.index, 1);
        let d = pick_command(Some((1, 1024)), &q, 3);
        assert_eq!(d.index, 2);
        assert!(d.seek_avoided);
    }

    #[test]
    fn starvation_bound_forces_the_bypassed_command() {
        let mut q = [cmd(1, 9000, 0), cmd(1, 1024, 1)];
        q[0].bypassed = STARVATION_BOUND;
        let d = pick_command(Some((1, 1024)), &q, 4);
        assert_eq!(d.index, 0);
        assert!(d.starvation_forced);
        assert!(!d.reordered);
    }
}
