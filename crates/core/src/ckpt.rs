//! Coordinated checkpoint / rollback-recovery library.
//!
//! The paper's applications write checkpoints by hand (AST's dump points);
//! its related work cites CLIP (Chen, Plank & Li, SC'97), a library that
//! packages the pattern. This module provides that library over the
//! simulated stack: all ranks enter [`Checkpointer::save`] together
//! (coordinated checkpointing — a barrier makes the cut consistent), the
//! per-rank state buffers are written with two-phase collective I/O, and
//! rank 0 commits the epoch by appending a metadata record only after the
//! data is on disk — so a crash mid-checkpoint leaves the previous epoch
//! recoverable. [`Checkpointer::restore_latest`] reads the newest
//! committed epoch back with collective reads.
//!
//! File layout: a data file holds the epochs' rank regions back to back;
//! a metadata file holds fixed-size commit records
//! `(epoch, data_offset, rank_sizes[P])`.

use std::rc::Rc;

use iosim_buf::Payload;
use iosim_msg::Comm;
use iosim_pfs::{CreateOptions, FileHandle, FileSystem, FsError, IoRequest};

use crate::two_phase::{read_collective, write_collective, Piece, Span};

/// A coordinated checkpointer for one group of ranks.
pub struct Checkpointer {
    comm: Comm,
    data: FileHandle,
    meta: FileHandle,
    /// Committed epochs: `(epoch id, data offset, per-rank sizes)`.
    epochs: Vec<(u64, u64, Vec<u64>)>,
    next_offset: u64,
}

const META_REC_HEADER: u64 = 16; // epoch id + data offset

impl Checkpointer {
    /// Open (creating if needed) the checkpoint files `name` and
    /// `name.meta`. Collective: every rank of `comm` must call it.
    pub async fn open(
        comm: Comm,
        fs: &Rc<FileSystem>,
        name: &str,
        stored: bool,
    ) -> Result<Checkpointer, FsError> {
        let rank = comm.rank();
        let iface = iosim_machine::Interface::Passion;
        let opts = CreateOptions {
            stored,
            ..Default::default()
        };
        let data = match fs.open(rank, iface, name, Some(opts)).await {
            Ok(fh) => fh,
            Err(FsError::Exists(_)) => fs.open(rank, iface, name, None).await?,
            Err(e) => return Err(e),
        };
        let meta = match fs
            .open(rank, iface, &format!("{name}.meta"), Some(opts))
            .await
        {
            Ok(fh) => fh,
            Err(FsError::Exists(_)) => fs.open(rank, iface, &format!("{name}.meta"), None).await?,
            Err(e) => return Err(e),
        };
        Ok(Checkpointer {
            comm,
            data,
            meta,
            epochs: Vec::new(),
            next_offset: 0,
        })
    }

    /// Size of one metadata record for `p` ranks.
    fn meta_record_size(p: usize) -> u64 {
        META_REC_HEADER + 8 * p as u64
    }

    /// Save a coordinated checkpoint of this rank's `state`. Returns the
    /// epoch id. Collective; ranks may pass different-sized states.
    pub async fn save(&mut self, state: Payload) -> Result<u64, FsError> {
        let p = self.comm.size();
        // Coordinate the cut and agree on everyone's sizes.
        let sizes_payload = self
            .comm
            .allgather(Payload::bytes(state.len.to_le_bytes().to_vec()))
            .await;
        let sizes: Vec<u64> = sizes_payload
            .into_iter()
            .map(|pl| u64::from_le_bytes(pl.into_bytes().try_into().expect("8 bytes")))
            .collect();
        let epoch = self.epochs.len() as u64;
        let base = self.next_offset;
        let my_offset = base + sizes[..self.comm.rank()].iter().sum::<u64>();
        // Phase 1+2: collective write of all rank states.
        write_collective(
            &self.comm,
            &self.data,
            vec![Piece {
                offset: my_offset,
                payload: state,
            }],
        )
        .await?;
        // Commit: after a barrier (data durable everywhere), rank 0
        // appends the epoch record.
        self.comm.barrier().await;
        if self.comm.rank() == 0 {
            let mut rec = Vec::with_capacity(Self::meta_record_size(p) as usize);
            rec.extend_from_slice(&epoch.to_le_bytes());
            rec.extend_from_slice(&base.to_le_bytes());
            for s in &sizes {
                rec.extend_from_slice(&s.to_le_bytes());
            }
            self.meta
                .write_at(epoch * Self::meta_record_size(p), rec)
                .await?;
            self.meta.flush().await;
        }
        self.comm.barrier().await;
        let total: u64 = sizes.iter().sum();
        self.epochs.push((epoch, base, sizes));
        self.next_offset = base + total;
        Ok(epoch)
    }

    /// Number of committed epochs.
    pub fn epochs(&self) -> u64 {
        self.epochs.len() as u64
    }

    /// Restore this rank's state from `epoch`. Collective. Returns the
    /// payload (real bytes iff the files are stored).
    pub async fn restore(&self, epoch: u64) -> Result<Payload, FsError> {
        let (_, base, sizes) = self
            .epochs
            .iter()
            .find(|(e, _, _)| *e == epoch)
            .unwrap_or_else(|| panic!("epoch {epoch} was never committed"))
            .clone();
        let my_offset = base + sizes[..self.comm.rank()].iter().sum::<u64>();
        let my_size = sizes[self.comm.rank()];
        let (mut got, _) =
            read_collective(&self.comm, &self.data, vec![Span::new(my_offset, my_size)]).await?;
        Ok(got.pop().expect("one span requested"))
    }

    /// Restore the newest committed epoch; panics if none exists.
    pub async fn restore_latest(&self) -> Result<Payload, FsError> {
        let last = self
            .epochs
            .last()
            .expect("no committed checkpoint to restore")
            .0;
        self.restore(last).await
    }

    /// Rebuild the epoch index from the metadata file (a fresh process
    /// recovering after failure). Collective only in that every rank may
    /// call it; all records travel as one vectored read (adjacent records
    /// coalesce into one sequential disk access).
    ///
    /// # Panics
    /// Panics if the checkpointer was opened with `stored = false`: a
    /// synthetic metadata file holds no records to read back.
    pub async fn recover_index(&mut self) -> Result<(), FsError> {
        let p = self.comm.size();
        let rec = Self::meta_record_size(p);
        let records = self.meta.size() / rec;
        self.epochs.clear();
        self.next_offset = 0;
        let all = self
            .meta
            .readv(&IoRequest::strided(0, rec, rec, records))
            .await?
            .data
            .unwrap_or_else(|| panic!("{} is synthetic: no index to recover", self.meta.name()))
            .flatten();
        for bytes in all.chunks_exact(rec as usize) {
            let epoch = u64::from_le_bytes(bytes[..8].try_into().expect("8"));
            let base = u64::from_le_bytes(bytes[8..16].try_into().expect("8"));
            let sizes: Vec<u64> = bytes[16..]
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8")))
                .collect();
            let total: u64 = sizes.iter().sum();
            self.next_offset = self.next_offset.max(base + total);
            self.epochs.push((epoch, base, sizes));
        }
        Ok(())
    }

    /// Close both files.
    pub async fn close(self) {
        self.data.close().await;
        self.meta.close().await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_machine::{presets, Machine};
    use iosim_msg::World;
    use iosim_simkit::executor::{join_all, Sim};
    use iosim_trace::TraceCollector;

    fn state_of(rank: usize, epoch: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| ((rank as u64 * 37 + epoch * 11 + i as u64) % 251) as u8)
            .collect()
    }

    fn run_group<T: 'static, F, Fut>(n: usize, f: F) -> Vec<T>
    where
        F: Fn(Comm, Rc<FileSystem>) -> Fut,
        Fut: std::future::Future<Output = T> + 'static,
    {
        let mut sim = Sim::new();
        let m = Machine::new(sim.handle(), presets::sp2());
        let fs = FileSystem::new(Rc::clone(&m), TraceCollector::new());
        let w = World::new(m, n);
        let h = sim.handle();
        let futs: Vec<_> = w
            .comms()
            .into_iter()
            .map(|c| f(c, Rc::clone(&fs)))
            .collect();
        let jh = sim.spawn(async move { join_all(&h, futs).await });
        sim.run();
        jh.try_take().expect("all ranks completed")
    }

    #[test]
    fn save_then_restore_roundtrips_per_rank_state() {
        let oks = run_group(4, |comm, fs| async move {
            let rank = comm.rank();
            let mut ck = Checkpointer::open(comm, &fs, "ck", true).await.unwrap();
            let state = state_of(rank, 0, 100 + rank * 10); // ragged sizes
            let epoch = ck.save(Payload::bytes(state.clone())).await.unwrap();
            assert_eq!(epoch, 0);
            let back = ck.restore_latest().await.unwrap();
            back.into_bytes() == state
        });
        assert!(oks.into_iter().all(|b| b));
    }

    #[test]
    fn multiple_epochs_restore_independently() {
        let oks = run_group(3, |comm, fs| async move {
            let rank = comm.rank();
            let mut ck = Checkpointer::open(comm, &fs, "ck", true).await.unwrap();
            for e in 0..3u64 {
                ck.save(Payload::bytes(state_of(rank, e, 64)))
                    .await
                    .unwrap();
            }
            assert_eq!(ck.epochs(), 3);
            let e1 = ck.restore(1).await.unwrap().into_bytes();
            let e2 = ck.restore(2).await.unwrap().into_bytes();
            e1 == state_of(rank, 1, 64) && e2 == state_of(rank, 2, 64)
        });
        assert!(oks.into_iter().all(|b| b));
    }

    #[test]
    fn recover_index_rebuilds_from_metadata() {
        let oks = run_group(4, |comm, fs| async move {
            let rank = comm.rank();
            // First "incarnation": save two epochs.
            let mut ck = Checkpointer::open(comm.clone(), &fs, "ck", true)
                .await
                .unwrap();
            ck.save(Payload::bytes(state_of(rank, 0, 48)))
                .await
                .unwrap();
            ck.save(Payload::bytes(state_of(rank, 1, 48)))
                .await
                .unwrap();
            ck.close().await;
            // "Restart": a fresh checkpointer recovers the index from the
            // metadata file and restores the newest epoch.
            let mut ck2 = Checkpointer::open(comm, &fs, "ck", true).await.unwrap();
            assert_eq!(ck2.epochs(), 0);
            ck2.recover_index().await.unwrap();
            assert_eq!(ck2.epochs(), 2);
            let back = ck2.restore_latest().await.unwrap();
            back.into_bytes() == state_of(rank, 1, 48)
        });
        assert!(oks.into_iter().all(|b| b));
    }

    #[test]
    fn synthetic_states_track_sizes_only() {
        let lens = run_group(2, |comm, fs| async move {
            let rank = comm.rank();
            let mut ck = Checkpointer::open(comm, &fs, "ck", false).await.unwrap();
            ck.save(Payload::synthetic(1 << 20)).await.unwrap();
            let back = ck.restore_latest().await.unwrap();
            let _ = rank;
            (back.len, back.data.is_none())
        });
        for (len, synthetic) in lens {
            assert_eq!(len, 1 << 20);
            assert!(synthetic);
        }
    }

    #[test]
    #[should_panic(expected = "no committed checkpoint")]
    fn restore_without_save_panics() {
        run_group(2, |comm, fs| async move {
            let ck = Checkpointer::open(comm, &fs, "ck", false).await.unwrap();
            let _ = ck.restore_latest().await;
        });
    }
}
