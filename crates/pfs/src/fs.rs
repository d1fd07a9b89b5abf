//! The parallel file system: files, open handles, and the timed data path.
//!
//! A [`FileSystem`] binds a [`Machine`] and a [`TraceCollector`]. Every
//! data operation on a [`FileHandle`] takes one path: it charges the
//! client-side interface cost, decomposes its extents into per-I/O-node
//! local runs ([`crate::layout::Striping::runs`]), and books each touched
//! node's share once. A node's booking sends the request over the
//! network, hands the disk work to the node's disk model, and returns the
//! response; the operation completes when the last response arrives and
//! is recorded with the trace collector, which yields the paper's
//! Tables 2–3 directly.
//!
//! A contiguous access is a request with one extent. Noncontiguous
//! accesses travel as an [`IoRequest`] extent list through
//! [`FileHandle::readv`] / [`FileHandle::writev`]. Under
//! [`Interface::Passion`] the whole list is serviced as **list I/O**:
//! one interface call, extents coalesced, and each touched I/O node
//! booked once per request (per-request overhead paid once, later runs
//! adding only transfer and intra-request seek costs). Under the
//! UNIX-style and Fortran interfaces the same request degenerates to
//! the historical per-fragment loop — the paper's interface contrast,
//! now expressed per request.
//!
//! Every I/O node has one disk model, owned by the [`Machine`]: one
//! head position and the node's capacity-N FIFO
//! [`iosim_simkit::resource::Resource`] (one server per disk), priced
//! and booked only through [`Machine::book_disk`], which charges a seek
//! penalty when the node-local offset is discontiguous with that node's
//! previous access. Three front ends book it: by default the file system
//! books each request directly, in arrival order; with a buffer cache
//! ([`iosim_machine::CachePolicy::Lru`]) the node's [`BufferCache`]
//! serves resident blocks at memory speed, absorbs writes behind, and
//! books only its misses, read-ahead and write-backs ([`FileHandle::flush`]
//! forces a file's dirty blocks out); with `io_queue_depth > 1` and no
//! cache, the node's command-queue daemon (`cmdq`) reorders
//! arrived commands before booking them. Under
//! [`iosim_machine::CachePolicy::None`] and depth 1 (every preset's
//! default) only the direct reservation runs.
//!
//! Files either **store real bytes** (so correctness of optimized I/O
//! paths can be asserted byte-for-byte) or are **synthetic** (timing only,
//! for the multi-gigabyte SCF workloads). Stored content lives in an
//! [`ExtentTree`]: writes adopt the caller's shared buffers without a
//! memcpy, and reads hand back views into the same storage. The buffer
//! cache and the disk queues are pure *timing* models — they never hold
//! data bytes, so sharing buffers between the application, the message
//! layer, and the file store is safe.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use iosim_buf::{Bytes, BytesList};
use iosim_cache::BufferCache;
use iosim_machine::{Interface, Machine};
use iosim_simkit::hash::FxHashMap;
use iosim_simkit::sync::Event;
use iosim_simkit::time::{SimDuration, SimTime};
use iosim_trace::{OpKind, TraceCollector};

use crate::cmdq::{CmdRuns, CommandQueues, DiskCommand};
use crate::extent::ExtentTree;
use crate::layout::Striping;
use crate::request::IoRequest;

/// Hard cap on stored-file size; synthetic files have no cap. Guards
/// against accidentally materializing a paper-scale (37 GB) workload.
pub const STORED_FILE_CAP: u64 = 512 << 20;

/// Errors surfaced by file operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsError {
    /// Open of a non-existent file without create.
    NotFound(String),
    /// Create of an already existing file.
    Exists(String),
    /// Read past end of file.
    PastEof {
        /// File name.
        name: String,
        /// Requested end offset.
        wanted: u64,
        /// Current size.
        size: u64,
    },
    /// Byte-returning read on a synthetic file.
    NotStored(String),
    /// A stored file would exceed [`STORED_FILE_CAP`].
    TooLarge(String),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(n) => write!(f, "file not found: {n}"),
            FsError::Exists(n) => write!(f, "file exists: {n}"),
            FsError::PastEof { name, wanted, size } => {
                write!(f, "read past EOF on {name}: wanted {wanted}, size {size}")
            }
            FsError::NotStored(n) => write!(f, "file {n} is synthetic (no bytes)"),
            FsError::TooLarge(n) => write!(f, "stored file {n} would exceed cap"),
        }
    }
}

impl std::error::Error for FsError {}

/// Whether a file holds real bytes or only timing metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Content {
    /// Real bytes in an extent tree, for functional verification.
    Stored(ExtentTree),
    /// Timing-only: size tracked, no data.
    Synthetic,
}

struct FileState {
    uid: u64,
    name: String,
    size: u64,
    striping: Striping,
    /// First machine I/O node of this file's stripe group; the striping's
    /// node indices are relative to it (modulo the machine's I/O nodes).
    node_base: usize,
    content: Content,
}

struct FsInner {
    files: FxHashMap<String, Rc<RefCell<FileState>>>,
    next_uid: u64,
}

/// Options for creating a file.
#[derive(Clone, Copy, Debug, Default)]
pub struct CreateOptions {
    /// Keep real bytes (subject to [`STORED_FILE_CAP`]).
    pub stored: bool,
    /// Override the stripe unit (defaults to the machine's).
    pub stripe_unit: Option<u64>,
    /// Override the I/O node holding stripe 0 (defaults to round-robin by
    /// file id, like PFS).
    pub start_node: Option<usize>,
    /// Stripe over only this many I/O nodes (clamped to the machine's;
    /// defaults to all — PFS's default stripe attributes).
    pub stripe_factor: Option<usize>,
}

/// The parallel file system bound to one machine.
pub struct FileSystem {
    machine: Rc<Machine>,
    trace: TraceCollector,
    /// I/O-node buffer caches, present iff the machine config enables a
    /// cache policy. `None` keeps the uncached data path untouched.
    cache: Option<Rc<BufferCache>>,
    /// NCQ-style per-node command queues, present iff the machine config
    /// sets `io_queue_depth > 1` and no buffer cache runs (a cached
    /// machine's disk traffic comes from the cache and is booked in FIFO
    /// order). The daemons book the same per-node disk queues as the
    /// direct path, only in elevator order. `None` books each node
    /// directly, in FIFO order.
    cmdq: Option<CommandQueues>,
    inner: RefCell<FsInner>,
}

/// Where one I/O node's share of a data operation stands once booked.
enum Booked {
    /// The response reaches the rank at this instant.
    At(SimTime),
    /// The command queue resolves the event with the disk's completion;
    /// the response then takes the given network time.
    Later(Event<SimTime>, SimDuration),
}

impl FileSystem {
    /// Create a file system over `machine`, recording into `trace`. The
    /// machine's [`iosim_machine::CacheParams`] decide whether the I/O
    /// nodes run a buffer cache; its counters feed `trace`.
    pub fn new(machine: Rc<Machine>, trace: TraceCollector) -> Rc<FileSystem> {
        let cache = BufferCache::new(&machine, trace.cache().clone());
        let cmdq = if machine.io_queue_depth() > 1 && cache.is_none() {
            Some(CommandQueues::new(&machine, trace.queue().clone()))
        } else {
            None
        };
        Rc::new(FileSystem {
            machine,
            trace,
            cache,
            cmdq,
            inner: RefCell::new(FsInner {
                files: FxHashMap::default(),
                next_uid: 0,
            }),
        })
    }

    /// The buffer cache, when the machine config enables one.
    pub fn cache(&self) -> Option<&Rc<BufferCache>> {
        self.cache.as_ref()
    }

    /// The machine this file system runs on.
    pub fn machine(&self) -> &Rc<Machine> {
        &self.machine
    }

    /// The trace collector.
    pub fn trace(&self) -> &TraceCollector {
        &self.trace
    }

    /// Create a file (no I/O cost; creation cost is charged by `open`).
    pub fn create(self: &Rc<Self>, name: &str, opts: CreateOptions) -> Result<(), FsError> {
        let mut inner = self.inner.borrow_mut();
        if inner.files.contains_key(name) {
            return Err(FsError::Exists(name.into()));
        }
        let uid = inner.next_uid;
        inner.next_uid += 1;
        let io_nodes = self.machine.io_nodes();
        let factor = opts.stripe_factor.unwrap_or(io_nodes).clamp(1, io_nodes);
        let striping = Striping::new(
            opts.stripe_unit
                .unwrap_or(self.machine.cfg().default_stripe_unit),
            factor,
            opts.start_node.unwrap_or((uid as usize) % factor),
        );
        // Files striped over a subset of the I/O nodes spread their stripe
        // groups round-robin across the machine.
        let node_base = if factor == io_nodes {
            0
        } else {
            (uid as usize) % io_nodes
        };
        let content = if opts.stored {
            Content::Stored(ExtentTree::new())
        } else {
            Content::Synthetic
        };
        inner.files.insert(
            name.to_string(),
            Rc::new(RefCell::new(FileState {
                uid,
                name: name.to_string(),
                size: 0,
                striping,
                node_base,
                content,
            })),
        );
        Ok(())
    }

    /// Whether a file exists.
    pub fn exists(&self, name: &str) -> bool {
        self.inner.borrow().files.contains_key(name)
    }

    /// Current size of a file.
    pub fn size_of(&self, name: &str) -> Result<u64, FsError> {
        self.inner
            .borrow()
            .files
            .get(name)
            .map(|f| f.borrow().size)
            .ok_or_else(|| FsError::NotFound(name.into()))
    }

    /// Remove a file (metadata operation, not timed).
    pub fn remove(&self, name: &str) -> Result<(), FsError> {
        self.inner
            .borrow_mut()
            .files
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| FsError::NotFound(name.into()))
    }

    /// Open `name` with interface `iface` on behalf of compute `rank`,
    /// charging the interface's open cost. Creates the file with `opts`
    /// if it does not exist and `opts` is `Some`.
    pub async fn open(
        self: &Rc<Self>,
        rank: usize,
        iface: Interface,
        name: &str,
        opts: Option<CreateOptions>,
    ) -> Result<FileHandle, FsError> {
        if !self.exists(name) {
            match opts {
                Some(o) => self.create(name, o)?,
                None => return Err(FsError::NotFound(name.into())),
            }
        }
        let h = self.machine.handle().clone();
        let start = h.now();
        h.sleep(self.machine.cfg().iface(iface).open).await;
        self.trace.record(rank, OpKind::Open, start, h.now(), 0);
        let file = Rc::clone(self.inner.borrow().files.get(name).expect("just checked"));
        Ok(FileHandle {
            fs: Rc::clone(self),
            file,
            rank,
            iface,
            pos: Cell::new(0),
        })
    }

    /// Book one I/O node's share of a data operation: `rank`'s sorted,
    /// merged local `runs` of file `uid`. The request crosses the network
    /// to the node (64 bytes for a read, the payload for a write), the
    /// disk work goes to the node's command queue, buffer cache or FIFO
    /// queue, and the response crosses back. All three price the disk
    /// work from the node's one head through [`Machine::book_disk`], so
    /// later runs of a multi-run share add their transfer and seek cost
    /// but not another per-request overhead.
    fn book_node(
        &self,
        rank: usize,
        node: usize,
        uid: u64,
        runs: &[(u64, u64)],
        is_read: bool,
    ) -> Booked {
        let net = &self.machine.cfg().net;
        let hops = self.machine.topology().io_hops(rank, node);
        let bytes: u64 = runs.iter().map(|&(_, len)| len).sum();
        let request = net.transfer_time(if is_read { 64 } else { bytes }, hops);
        let arrival = self.machine.handle().now() + request;
        let response = net.transfer_time(if is_read { bytes } else { 0 }, hops);
        let end = if let Some(cmdq) = &self.cmdq {
            let done = Event::new();
            cmdq.submit(
                node,
                DiskCommand {
                    arrival,
                    uid,
                    runs: CmdRuns::from(runs),
                    done: done.clone(),
                },
            );
            return Booked::Later(done, response);
        } else if let Some(cache) = &self.cache {
            if is_read {
                cache.read_extents(node, uid, runs, arrival)
            } else {
                cache.write_extents(node, uid, runs, arrival)
            }
        } else {
            self.machine.book_disk(node, uid, runs, arrival).1
        };
        Booked::At(end + response)
    }

    /// Names of all files, sorted.
    pub fn file_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.borrow().files.keys().cloned().collect();
        names.sort();
        names
    }

    /// Render a utilization report: per-I/O-node request counts, busy
    /// time, queueing, and the file inventory.
    pub fn render_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let now = self.machine.handle().now();
        // Command-queue columns only appear when the NCQ path ran (the
        // counters never tick on the legacy FIFO path).
        let cmdq_ran = !self.trace.queue().snapshot().is_empty();
        let _ = write!(
            out,
            "{:<10} {:>10} {:>12} {:>12} {:>8}",
            "I/O node", "requests", "busy (s)", "queued (s)", "util"
        );
        if cmdq_ran {
            let _ = write!(out, " {:>10} {:>9}", "mean depth", "reorders");
        }
        let _ = writeln!(out);
        for i in 0..self.machine.io_nodes() {
            let q = self.machine.io_queue(i);
            let st = q.stats();
            let _ = write!(
                out,
                "{:<10} {:>10} {:>12.3} {:>12.3} {:>7.1}%",
                i,
                st.requests,
                st.busy.as_secs_f64(),
                st.queued.as_secs_f64(),
                100.0 * st.utilization(now, q.capacity()),
            );
            if cmdq_ran {
                let qs = self.trace.queue().node_snapshot(i);
                let _ = write!(out, " {:>10.1} {:>9}", qs.mean_depth(), qs.reorders);
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "files:");
        for name in self.file_names() {
            let size = self.size_of(&name).unwrap_or(0);
            let _ = writeln!(out, "  {name} ({size} bytes)");
        }
        out
    }
}

/// An open file handle held by one simulated process.
pub struct FileHandle {
    fs: Rc<FileSystem>,
    file: Rc<RefCell<FileState>>,
    rank: usize,
    iface: Interface,
    pos: Cell<u64>,
}

impl FileHandle {
    /// The file system this handle belongs to (collective writers need
    /// its machine config and trace collector).
    pub fn fs(&self) -> &Rc<FileSystem> {
        &self.fs
    }

    /// The simulation handle of the machine this file lives on.
    pub fn sim_handle(&self) -> iosim_simkit::executor::SimHandle {
        self.fs.machine.handle().clone()
    }

    /// Memory-copy time for `bytes` on this machine's CPU (prefetch buffer
    /// copies).
    pub fn copy_time(&self, bytes: u64) -> iosim_simkit::time::SimDuration {
        self.fs.machine.cfg().cpu.copy_time(bytes)
    }

    /// File name.
    pub fn name(&self) -> String {
        self.file.borrow().name.clone()
    }

    /// Current size.
    pub fn size(&self) -> u64 {
        self.file.borrow().size
    }

    /// Current file-pointer position.
    pub fn pos(&self) -> u64 {
        self.pos.get()
    }

    /// The striping of this file.
    pub fn striping(&self) -> Striping {
        self.file.borrow().striping
    }

    /// Explicit seek: repositions the file pointer, charging the
    /// interface's seek cost and tracing a Seek op (this is the op the
    /// unoptimized BTIO issues in huge numbers).
    pub async fn seek(&self, pos: u64) {
        let h = self.fs.machine.handle().clone();
        let start = h.now();
        h.sleep(self.fs.machine.cfg().iface(self.iface).seek).await;
        self.pos.set(pos);
        self.fs
            .trace
            .record(self.rank, OpKind::Seek, start, h.now(), 0);
    }

    /// The one data path: charge one interface call, book `extents` (file
    /// offsets) on the I/O nodes, wait for the last response and trace
    /// one operation of `bytes`. A contiguous op (`list` false, one
    /// extent) books its striping runs in striping order without
    /// allocating. A list request (`list`, sorted and coalesced extents)
    /// is scattered per node, each node's adjacent local runs merged,
    /// and every touched node booked once, in ascending node order.
    async fn data_op(&self, kind: OpKind, extents: &[(u64, u64)], bytes: u64, list: bool) {
        let fs = &self.fs;
        let h = fs.machine.handle().clone();
        let start = h.now();
        let costs = fs.machine.cfg().iface(self.iface);
        let call = match kind {
            OpKind::Read => costs.read_call,
            OpKind::Write => costs.write_call,
            _ => unreachable!("data_op is only for read/write"),
        };
        h.sleep(call).await;
        let (striping, node_base, uid) = {
            let f = self.file.borrow();
            (f.striping, f.node_base, f.uid)
        };
        let io_nodes = fs.machine.io_nodes();
        let is_read = kind == OpKind::Read;
        // Each node is booked at most once per op, so a queued machine's
        // completion events fit without regrowing.
        let mut waits = Vec::with_capacity(if fs.cmdq.is_some() { io_nodes } else { 0 });
        let mut latest = h.now();
        let mut book = |node: usize, runs: &[(u64, u64)]| match fs
            .book_node(self.rank, node, uid, runs, is_read)
        {
            Booked::At(done) => latest = latest.max(done),
            Booked::Later(done, response) => waits.push((done, response)),
        };
        if list {
            // Disjoint global extents can be contiguous in a node's local
            // space, so the `(node, local offset, bytes)` runs are sorted
            // by node then offset and merged before booking.
            let mut local: Vec<(usize, u64, u64)> = Vec::with_capacity(extents.len());
            for &(off, len) in extents {
                for run in striping.runs(off, len) {
                    let node = (node_base + run.io_node) % io_nodes;
                    local.push((node, run.local_offset, run.bytes));
                }
            }
            local.sort_unstable();
            let mut merged: Vec<(u64, u64)> = Vec::new();
            for group in local.chunk_by(|a, b| a.0 == b.0) {
                merged.clear();
                for &(_, off, len) in group {
                    match merged.last_mut() {
                        Some((moff, mlen)) if *moff + *mlen == off => *mlen += len,
                        _ => merged.push((off, len)),
                    }
                }
                book(group[0].0, &merged);
            }
        } else {
            for &(offset, len) in extents {
                for run in striping.runs(offset, len) {
                    let node = (node_base + run.io_node) % io_nodes;
                    book(node, &[(run.local_offset, run.bytes)]);
                }
            }
        }
        for (done, response) in waits {
            latest = latest.max(done.wait().await + response);
        }
        h.sleep_until(latest).await;
        fs.trace.record(self.rank, kind, start, h.now(), bytes);
    }

    /// Whether a request takes the list-I/O service path: PASSION's
    /// vectored interface on a genuinely noncontiguous request. A
    /// single-fragment request costs the same either way, so it is booked
    /// as a contiguous op (keeping `readv`/`read_at` timing-identical
    /// for contiguous accesses under every interface).
    fn is_listio(&self, req: &IoRequest) -> bool {
        matches!(self.iface, Interface::Passion) && req.fragments() > 1
    }

    /// Per-request shape accounting for the trace layer.
    fn note_listio(&self, req: &IoRequest) {
        self.fs.trace.listio().add_request(
            req.fragments() as u64,
            req.coalesced().len() as u64,
            req.total_bytes(),
        );
    }

    fn check_read(&self, offset: u64, len: u64) -> Result<(), FsError> {
        let f = self.file.borrow();
        if offset + len > f.size {
            return Err(FsError::PastEof {
                name: f.name.clone(),
                wanted: offset + len,
                size: f.size,
            });
        }
        Ok(())
    }

    /// Require stored bytes (payload-returning reads).
    fn check_stored(&self) -> Result<(), FsError> {
        let f = self.file.borrow();
        if matches!(f.content, Content::Synthetic) {
            return Err(FsError::NotStored(f.name.clone()));
        }
        Ok(())
    }

    /// View `[offset, offset + len)` of the stored content as a rope of
    /// shared buffers (holes zero-filled, nothing copied).
    fn extract(&self, offset: u64, len: u64) -> BytesList {
        let f = self.file.borrow();
        let Content::Stored(tree) = &f.content else {
            unreachable!("stored-ness checked before the timed op")
        };
        tree.read(offset, len)
    }

    /// One contiguous read extent; payload-vs-discard
    /// is the `want_bytes` mode (the single servicing routine behind
    /// `read_at` and `read_discard_at`).
    async fn read_one(
        &self,
        offset: u64,
        len: u64,
        want_bytes: bool,
    ) -> Result<Option<Bytes>, FsError> {
        self.check_read(offset, len)?;
        if want_bytes {
            self.check_stored()?;
        }
        self.data_op(OpKind::Read, &[(offset, len)], len, false)
            .await;
        Ok(want_bytes.then(|| self.extract(offset, len).flatten()))
    }

    /// Read `len` bytes at `offset` (pread-style, no Seek op), returning
    /// a shared view of the stored data (a copy is made only when the
    /// range spans several stored extents). Errors on synthetic files —
    /// use [`FileHandle::read_discard_at`] for those.
    pub async fn read_at(&self, offset: u64, len: u64) -> Result<Bytes, FsError> {
        Ok(self
            .read_one(offset, len, true)
            .await?
            .expect("payload mode returns bytes"))
    }

    /// Read `len` bytes at `offset` as a rope of shared extent views —
    /// like [`FileHandle::read_at`] but never flattening, so no byte is
    /// copied even when the range spans several stored extents. Timing
    /// and tracing identical to `read_at`.
    pub async fn read_rope_at(&self, offset: u64, len: u64) -> Result<BytesList, FsError> {
        self.check_read(offset, len)?;
        self.check_stored()?;
        self.data_op(OpKind::Read, &[(offset, len)], len, false)
            .await;
        Ok(self.extract(offset, len))
    }

    /// Read `len` bytes at `offset`, discarding data (works on synthetic
    /// and stored files alike; timing and tracing identical to `read_at`).
    pub async fn read_discard_at(&self, offset: u64, len: u64) -> Result<(), FsError> {
        self.read_one(offset, len, false).await.map(|_| ())
    }

    /// Vectored read of a whole [`IoRequest`], returning the fragments'
    /// bytes concatenated in extent order. Under
    /// [`Interface::Passion`] a multi-fragment request is serviced as
    /// list I/O (one call, one booking per I/O node); under other
    /// interfaces it is the exact equivalent of a `read_at` fragment
    /// loop. Errors on synthetic files — use
    /// [`FileHandle::readv_discard`] for those.
    pub async fn readv(&self, req: &IoRequest) -> Result<Bytes, FsError> {
        Ok(self.vectored_read(req, true).await?.unwrap_or_default())
    }

    /// Vectored read, discarding data (synthetic and stored files
    /// alike; timing and tracing identical to `readv`).
    pub async fn readv_discard(&self, req: &IoRequest) -> Result<(), FsError> {
        self.vectored_read(req, false).await.map(|_| ())
    }

    async fn vectored_read(
        &self,
        req: &IoRequest,
        want_bytes: bool,
    ) -> Result<Option<Bytes>, FsError> {
        for &(off, len) in req.extents() {
            self.check_read(off, len)?;
        }
        if want_bytes {
            self.check_stored()?;
        }
        if req.is_empty() {
            return Ok(want_bytes.then(Bytes::new));
        }
        self.note_listio(req);
        if self.is_listio(req) {
            self.data_op(OpKind::Read, &req.coalesced(), req.total_bytes(), true)
                .await;
        } else {
            for &(off, len) in req.extents() {
                self.data_op(OpKind::Read, &[(off, len)], len, false).await;
            }
        }
        Ok(want_bytes.then(|| {
            let mut out = BytesList::new();
            for &(off, len) in req.extents() {
                out.append(self.extract(off, len));
            }
            out.flatten()
        }))
    }

    /// Sequential read from the file pointer, advancing it.
    pub async fn read(&self, len: u64) -> Result<Bytes, FsError> {
        let off = self.pos.get();
        let out = self.read_at(off, len).await?;
        self.pos.set(off + len);
        Ok(out)
    }

    /// Sequential discard-read from the file pointer, advancing it.
    pub async fn read_discard(&self, len: u64) -> Result<(), FsError> {
        let off = self.pos.get();
        self.read_discard_at(off, len).await?;
        self.pos.set(off + len);
        Ok(())
    }

    /// Untimed bookkeeping of one write extent: cap check, growth, and —
    /// in payload mode — adoption of the shared buffers into the extent
    /// tree (no copy). `data` is `None` for discard (timing-only) writes;
    /// either mode grows the file size.
    fn note_write(&self, offset: u64, len: u64, data: Option<&BytesList>) -> Result<(), FsError> {
        let mut f = self.file.borrow_mut();
        let end = offset + len;
        if let Content::Stored(tree) = &mut f.content {
            if end > STORED_FILE_CAP {
                return Err(FsError::TooLarge(f.name.clone()));
            }
            if let Some(d) = data {
                tree.write_list(offset, d);
            }
        }
        f.size = f.size.max(end);
        Ok(())
    }

    /// One contiguous write extent; payload-vs-discard
    /// is the `data` mode (the single servicing routine behind
    /// `write_at` and `write_discard_at`).
    async fn write_one(
        &self,
        offset: u64,
        len: u64,
        data: Option<&BytesList>,
    ) -> Result<(), FsError> {
        self.note_write(offset, len, data)?;
        self.data_op(OpKind::Write, &[(offset, len)], len, false)
            .await;
        Ok(())
    }

    /// Write `data` at `offset` (pwrite-style). A stored file adopts the
    /// buffers as its backing store — pass an owned `Vec<u8>`, [`Bytes`],
    /// or [`BytesList`] for a zero-copy write (a `&[u8]` is copied once
    /// on conversion); always updates size and timing.
    pub async fn write_at(&self, offset: u64, data: impl Into<BytesList>) -> Result<(), FsError> {
        let data = data.into();
        let len = data.len();
        self.write_one(offset, len, Some(&data)).await
    }

    /// Write `len` synthetic bytes at `offset` (timing only; size grows).
    pub async fn write_discard_at(&self, offset: u64, len: u64) -> Result<(), FsError> {
        self.write_one(offset, len, None).await
    }

    /// Vectored write of a whole [`IoRequest`] with scatter-gather
    /// payload: `data` holds the fragments' bytes concatenated in extent
    /// order (`data.len()` must equal [`IoRequest::total_bytes`]). Under
    /// [`Interface::Passion`] a multi-fragment request is serviced as
    /// list I/O (one call, one booking per I/O node); under other
    /// interfaces it is the exact equivalent of a `write_at` fragment
    /// loop.
    ///
    /// # Panics
    /// Panics if `data.len() != req.total_bytes()`.
    pub async fn writev(&self, req: &IoRequest, data: impl Into<BytesList>) -> Result<(), FsError> {
        let data = data.into();
        assert_eq!(
            data.len(),
            req.total_bytes(),
            "writev payload must match the request's total bytes"
        );
        self.vectored_write(req, Some(data)).await
    }

    /// Vectored synthetic write (timing only; size grows per extent).
    pub async fn writev_discard(&self, req: &IoRequest) -> Result<(), FsError> {
        self.vectored_write(req, None).await
    }

    async fn vectored_write(
        &self,
        req: &IoRequest,
        data: Option<BytesList>,
    ) -> Result<(), FsError> {
        let mut cursor = 0u64;
        for &(off, len) in req.extents() {
            let frag = data.as_ref().map(|d| d.slice(cursor, len));
            self.note_write(off, len, frag.as_ref())?;
            cursor += len;
        }
        if req.is_empty() {
            return Ok(());
        }
        self.note_listio(req);
        if self.is_listio(req) {
            self.data_op(OpKind::Write, &req.coalesced(), req.total_bytes(), true)
                .await;
        } else {
            for &(off, len) in req.extents() {
                self.data_op(OpKind::Write, &[(off, len)], len, false).await;
            }
        }
        Ok(())
    }

    /// Sequential write from the file pointer, advancing it.
    pub async fn write(&self, data: impl Into<BytesList>) -> Result<(), FsError> {
        let data = data.into();
        let len = data.len();
        let off = self.pos.get();
        self.write_one(off, len, Some(&data)).await?;
        self.pos.set(off + len);
        Ok(())
    }

    /// Sequential synthetic write from the file pointer, advancing it.
    pub async fn write_discard(&self, len: u64) -> Result<(), FsError> {
        let off = self.pos.get();
        self.write_discard_at(off, len).await?;
        self.pos.set(off + len);
        Ok(())
    }

    /// Grow the file to at least `size` bytes without timed I/O (metadata
    /// allocation, as PFS `lsize`). Pure metadata even for stored files:
    /// the extent tree zero-fills never-written ranges on read, so no
    /// backing store is materialized here.
    ///
    /// # Panics
    /// Panics if a stored file would exceed [`STORED_FILE_CAP`].
    pub fn preallocate(&self, size: u64) {
        let mut f = self.file.borrow_mut();
        if matches!(f.content, Content::Stored(_)) {
            assert!(
                size <= STORED_FILE_CAP,
                "preallocate of stored file {} beyond cap",
                f.name
            );
        }
        f.size = f.size.max(size);
    }

    /// Flush buffered data. Without a buffer cache this charges only the
    /// interface's flush cost; with one, it also synchronously writes
    /// back every dirty block this file left in the I/O-node caches.
    pub async fn flush(&self) {
        let h = self.fs.machine.handle().clone();
        let start = h.now();
        h.sleep(self.fs.machine.cfg().iface(self.iface).flush).await;
        if let Some(cache) = &self.fs.cache {
            let uid = self.file.borrow().uid;
            let done = cache.flush_file(uid, h.now());
            h.sleep_until(done).await;
        }
        self.fs
            .trace
            .record(self.rank, OpKind::Flush, start, h.now(), 0);
    }

    /// Close the handle (cost + trace).
    pub async fn close(self) {
        let h = self.fs.machine.handle().clone();
        let start = h.now();
        h.sleep(self.fs.machine.cfg().iface(self.iface).close).await;
        self.fs
            .trace
            .record(self.rank, OpKind::Close, start, h.now(), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_machine::presets;
    use iosim_simkit::executor::Sim;
    use iosim_simkit::time::SimDuration;

    fn fixture(sim: &Sim) -> (Rc<FileSystem>, TraceCollector) {
        let trace = TraceCollector::new();
        let m = Machine::new(sim.handle(), presets::paragon_small());
        (FileSystem::new(m, trace.clone()), trace)
    }

    fn stored() -> CreateOptions {
        CreateOptions {
            stored: true,
            ..Default::default()
        }
    }

    #[test]
    fn write_then_read_roundtrips_bytes() {
        let mut sim = Sim::new();
        let (fs, _) = fixture(&sim);
        let jh = sim.spawn(async move {
            let fh = fs
                .open(0, Interface::UnixStyle, "f", Some(stored()))
                .await
                .unwrap();
            let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
            fh.write_at(0, &data).await.unwrap();
            let back = fh.read_at(0, data.len() as u64).await.unwrap();
            assert_eq!(back, data);
            // Partial mid-file read.
            let mid = fh.read_at(1000, 5000).await.unwrap();
            assert_eq!(&mid[..], &data[1000..6000]);
        });
        sim.run();
        jh.try_take().expect("task completed");
    }

    #[test]
    fn read_past_eof_errors() {
        let mut sim = Sim::new();
        let (fs, _) = fixture(&sim);
        let jh = sim.spawn(async move {
            let fh = fs
                .open(0, Interface::UnixStyle, "f", Some(stored()))
                .await
                .unwrap();
            fh.write_at(0, &[1, 2, 3]).await.unwrap();
            fh.read_at(0, 10).await
        });
        sim.run();
        assert!(matches!(
            jh.try_take().unwrap(),
            Err(FsError::PastEof { .. })
        ));
    }

    #[test]
    fn synthetic_files_track_size_but_not_bytes() {
        let mut sim = Sim::new();
        let (fs, _) = fixture(&sim);
        let jh = sim.spawn(async move {
            let fh = fs
                .open(0, Interface::Passion, "syn", Some(CreateOptions::default()))
                .await
                .unwrap();
            fh.write_discard_at(0, 1 << 20).await.unwrap();
            assert_eq!(fh.size(), 1 << 20);
            fh.read_discard_at(0, 1 << 20).await.unwrap();
            fh.read_at(0, 16).await
        });
        sim.run();
        assert!(matches!(jh.try_take().unwrap(), Err(FsError::NotStored(_))));
    }

    #[test]
    fn ops_are_traced_with_counts_and_volume() {
        let mut sim = Sim::new();
        let (fs, trace) = fixture(&sim);
        let jh = sim.spawn(async move {
            let fh = fs
                .open(2, Interface::Fortran, "t", Some(CreateOptions::default()))
                .await
                .unwrap();
            fh.write_discard(4096).await.unwrap();
            fh.seek(0).await;
            fh.read_discard(4096).await.unwrap();
            fh.flush().await;
            fh.close().await;
        });
        sim.run();
        jh.try_take().expect("completed");
        assert_eq!(trace.count(OpKind::Open), 1);
        assert_eq!(trace.count(OpKind::Write), 1);
        assert_eq!(trace.count(OpKind::Seek), 1);
        assert_eq!(trace.count(OpKind::Read), 1);
        assert_eq!(trace.count(OpKind::Flush), 1);
        assert_eq!(trace.count(OpKind::Close), 1);
        assert_eq!(trace.bytes(OpKind::Write), 4096);
        assert_eq!(trace.bytes(OpKind::Read), 4096);
        // A Fortran read costs at least the 90 ms call overhead.
        assert!(trace.time(OpKind::Read) >= SimDuration::from_millis(90));
    }

    #[test]
    fn sequential_reads_avoid_seek_penalty() {
        // Two sequential same-file reads: the second continues each node's
        // fragment, so only the first pays the seek penalty per node.
        let mut sim = Sim::new();
        let (fs, _) = fixture(&sim);
        let m = Rc::clone(fs.machine());
        let jh = sim.spawn(async move {
            let h = m.handle().clone();
            let fh = fs
                .open(0, Interface::Passion, "seq", Some(CreateOptions::default()))
                .await
                .unwrap();
            fh.write_discard_at(0, 1 << 20).await.unwrap();
            let t0 = h.now();
            fh.read_discard_at(0, 128 << 10).await.unwrap();
            let first = h.now() - t0;
            let t1 = h.now();
            fh.read_discard_at(128 << 10, 128 << 10).await.unwrap();
            let second = h.now() - t1;
            (first, second)
        });
        sim.run();
        let (_first, second) = jh.try_take().unwrap();
        // Second read continues sequentially: no seek penalty anywhere.
        // Its duration is call overhead + service without seek.
        let cfg = presets::paragon_small();
        let per_node = 64 << 10; // 128 KB over 2 I/O nodes
        let expect = cfg.passion.read_call
            + cfg.disk.service_time(per_node, false)
            + SimDuration::from_millis(2); // request + 64 KB response on the mesh
        assert!(
            second <= expect,
            "sequential read paid a seek: {second} > {expect}"
        );
    }

    #[test]
    fn interleaved_files_pay_seeks() {
        // Alternating reads of two files on the same I/O nodes must pay the
        // seek penalty on every op, unlike a single sequential stream.
        let mut sim = Sim::new();
        let (fs, trace) = fixture(&sim);
        let trace_in = trace.clone();
        let jh = sim.spawn(async move {
            let a = fs
                .open(0, Interface::Passion, "a", Some(CreateOptions::default()))
                .await
                .unwrap();
            let b = fs
                .open(0, Interface::Passion, "b", Some(CreateOptions::default()))
                .await
                .unwrap();
            a.write_discard_at(0, 1 << 20).await.unwrap();
            b.write_discard_at(0, 1 << 20).await.unwrap();
            trace_in.reset();
            for i in 0..4u64 {
                a.read_discard_at(i * 65536, 65536).await.unwrap();
                b.read_discard_at(i * 65536, 65536).await.unwrap();
            }
        });
        sim.run();
        jh.try_take().expect("completed");
        let interleaved = trace.time(OpKind::Read);

        // Same volume, single file, sequential:
        let mut sim2 = Sim::new();
        let (fs2, trace2) = fixture(&sim2);
        let trace2_in = trace2.clone();
        let jh2 = sim2.spawn(async move {
            let a = fs2
                .open(0, Interface::Passion, "a", Some(CreateOptions::default()))
                .await
                .unwrap();
            a.write_discard_at(0, 1 << 20).await.unwrap();
            trace2_in.reset();
            for i in 0..8u64 {
                a.read_discard_at(i * 65536, 65536).await.unwrap();
            }
        });
        sim2.run();
        jh2.try_take().expect("completed");
        let sequential = trace2.time(OpKind::Read);
        assert!(
            interleaved > sequential,
            "interleaving two files should cost seeks: {interleaved} <= {sequential}"
        );
    }

    #[test]
    fn contention_grows_with_fewer_io_nodes() {
        // The same aggregate workload takes longer on 1 I/O node than 4.
        let run_with = |io_nodes: usize| -> f64 {
            let mut sim = Sim::new();
            let trace = TraceCollector::new();
            let m = Machine::new(
                sim.handle(),
                presets::paragon_small().with_io_nodes(io_nodes),
            );
            let fs = FileSystem::new(m, trace);
            let h = sim.handle();
            let futs: Vec<_> = (0..8usize)
                .map(|rank| {
                    let fs = Rc::clone(&fs);
                    async move {
                        let fh = fs
                            .open(
                                rank,
                                Interface::Passion,
                                &format!("f{rank}"),
                                Some(CreateOptions::default()),
                            )
                            .await
                            .unwrap();
                        fh.write_discard_at(0, 4 << 20).await.unwrap();
                    }
                })
                .collect();
            let jh = sim.spawn(async move {
                iosim_simkit::executor::join_all(&h, futs).await;
            });
            let end = sim.run();
            jh.try_take().expect("completed");
            end.as_secs_f64()
        };
        let t1 = run_with(1);
        let t4 = run_with(4);
        assert!(
            t1 > 2.0 * t4,
            "1 I/O node should be much slower: {t1} vs {t4}"
        );
    }

    #[test]
    fn create_twice_errors_and_remove_works() {
        let sim = Sim::new();
        let (fs, _) = fixture(&sim);
        fs.create("x", CreateOptions::default()).unwrap();
        assert!(matches!(
            fs.create("x", CreateOptions::default()),
            Err(FsError::Exists(_))
        ));
        assert!(fs.exists("x"));
        fs.remove("x").unwrap();
        assert!(!fs.exists("x"));
        assert!(matches!(fs.remove("x"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn stored_cap_enforced() {
        let mut sim = Sim::new();
        let (fs, _) = fixture(&sim);
        let jh = sim.spawn(async move {
            let fh = fs
                .open(0, Interface::UnixStyle, "big", Some(stored()))
                .await
                .unwrap();
            fh.write_discard_at(STORED_FILE_CAP, 1).await
        });
        sim.run();
        assert!(matches!(jh.try_take().unwrap(), Err(FsError::TooLarge(_))));
    }

    #[test]
    fn report_lists_nodes_and_files() {
        // The direct path and the command-queue daemons book the same
        // per-node disk queues, so the per-node columns are real on a
        // queued machine too.
        for cfg in [
            presets::paragon_small(),
            presets::paragon_small()
                .with_io_nodes(4)
                .with_io_queue_depth(8),
        ] {
            let io_nodes = cfg.io_nodes;
            let mut sim = Sim::new();
            let fs = FileSystem::new(Machine::new(sim.handle(), cfg), TraceCollector::new());
            let fs2 = Rc::clone(&fs);
            let jh = sim.spawn(async move {
                let a = fs2
                    .open(
                        0,
                        Interface::Passion,
                        "alpha",
                        Some(CreateOptions::default()),
                    )
                    .await
                    .unwrap();
                a.write_discard_at(0, 1 << 20).await.unwrap();
                fs2.create("beta", CreateOptions::default()).unwrap();
            });
            sim.run();
            jh.try_take().expect("completed");
            assert_eq!(
                fs.file_names(),
                vec!["alpha".to_string(), "beta".to_string()]
            );
            let report = fs.render_report();
            assert!(report.contains("I/O node"));
            assert!(report.contains("alpha (1048576 bytes)"));
            assert!(report.contains("beta (0 bytes)"));
            // A 1 MB write stripes over every node: each row shows its
            // request and the disk time it booked.
            for row in report.lines().skip(1).take(io_nodes) {
                let cols: Vec<&str> = row.split_whitespace().collect();
                let requests: u64 = cols[1].parse().expect("request count");
                let busy: f64 = cols[2].parse().expect("busy seconds");
                assert!(
                    requests > 0 && busy > 0.0,
                    "idle row on {io_nodes} nodes: {row}"
                );
            }
        }
    }

    #[test]
    fn stripe_factor_confines_a_file_to_a_node_subset() {
        // A file striped over 1 of 4 I/O nodes leaves the other queues
        // untouched.
        let mut sim = Sim::new();
        let trace = TraceCollector::new();
        let m = Machine::new(sim.handle(), presets::paragon_small().with_io_nodes(4));
        let m2 = Rc::clone(&m);
        let fs = FileSystem::new(m, trace);
        let jh = sim.spawn(async move {
            let fh = fs
                .open(
                    0,
                    Interface::Passion,
                    "narrow",
                    Some(CreateOptions {
                        stripe_factor: Some(1),
                        ..Default::default()
                    }),
                )
                .await
                .unwrap();
            fh.write_discard_at(0, 1 << 20).await.unwrap();
        });
        sim.run();
        jh.try_take().expect("completed");
        let busy: Vec<bool> = (0..4)
            .map(|i| m2.io_queue(i).stats().requests > 0)
            .collect();
        assert_eq!(busy.iter().filter(|&&b| b).count(), 1, "{busy:?}");
    }

    #[test]
    fn degraded_io_node_slows_striped_io() {
        let run_with = |degrade: bool| -> f64 {
            let mut sim = Sim::new();
            let mut cfg = presets::paragon_small().with_io_nodes(4);
            if degrade {
                cfg = cfg.with_degraded_io_node(2, 0.25);
            }
            let m = Machine::new(sim.handle(), cfg);
            let fs = FileSystem::new(m, TraceCollector::new());
            let jh = sim.spawn(async move {
                let fh = fs
                    .open(0, Interface::Passion, "f", Some(CreateOptions::default()))
                    .await
                    .unwrap();
                fh.write_discard_at(0, 8 << 20).await.unwrap();
            });
            let end = sim.run();
            jh.try_take().expect("completed");
            end.as_secs_f64()
        };
        let nominal = run_with(false);
        let degraded = run_with(true);
        // Round-robin striping drags the whole op to the slowest node.
        assert!(
            degraded > 2.0 * nominal,
            "hot-spot should dominate: {degraded} vs {nominal}"
        );
    }

    #[test]
    fn buffer_cache_accelerates_repeated_reads() {
        use iosim_machine::CacheParams;
        // The same re-read workload, with and without an LRU cache: the
        // warm re-read must be faster and the counters must show hits.
        let run_with = |cache: CacheParams| -> (f64, iosim_trace::CacheSnapshot) {
            let mut sim = Sim::new();
            let trace = TraceCollector::new();
            let m = Machine::new(sim.handle(), presets::paragon_small().with_cache(cache));
            let fs = FileSystem::new(m, trace.clone());
            let jh = sim.spawn(async move {
                let fh = fs
                    .open(0, Interface::Passion, "f", Some(CreateOptions::default()))
                    .await
                    .unwrap();
                fh.write_discard_at(0, 1 << 20).await.unwrap();
                for _ in 0..4 {
                    fh.read_discard_at(0, 1 << 20).await.unwrap();
                }
                fh.flush().await;
            });
            let end = sim.run();
            jh.try_take().expect("completed");
            (end.as_secs_f64(), trace.cache().snapshot())
        };
        let (uncached, s0) = run_with(CacheParams::none());
        let (cached, s1) = run_with(CacheParams::lru(4 << 20));
        assert!(s0.is_empty(), "no cache => no counters: {s0:?}");
        assert!(
            cached < uncached,
            "re-reads should hit the cache: {cached} vs {uncached}"
        );
        assert!(s1.hits > 0, "{s1:?}");
        assert!(s1.writes_absorbed > 0, "{s1:?}");
    }

    #[test]
    fn cached_stored_file_roundtrips_bytes() {
        // Cache changes timing only; stored bytes stay exact.
        let mut sim = Sim::new();
        let trace = TraceCollector::new();
        let m = Machine::new(
            sim.handle(),
            presets::paragon_small().with_lru_cache(1 << 20),
        );
        let fs = FileSystem::new(m, trace);
        let jh = sim.spawn(async move {
            let fh = fs
                .open(0, Interface::UnixStyle, "f", Some(stored()))
                .await
                .unwrap();
            let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
            fh.write_at(0, &data).await.unwrap();
            fh.flush().await;
            let back = fh.read_at(0, data.len() as u64).await.unwrap();
            assert_eq!(back, data);
        });
        sim.run();
        jh.try_take().expect("completed");
    }

    #[test]
    fn passion_listio_beats_the_fragment_loop() {
        // The same strided pattern: as a fragment loop each 4 KB piece
        // pays a PASSION call and its own disk booking; as one readv the
        // call and the per-request disk overhead are paid once per node.
        let elapsed = |listio: bool| -> SimDuration {
            let mut sim = Sim::new();
            let (fs, _) = fixture(&sim);
            let m = Rc::clone(fs.machine());
            let jh = sim.spawn(async move {
                let h = m.handle().clone();
                let fh = fs
                    .open(0, Interface::Passion, "s", Some(CreateOptions::default()))
                    .await
                    .unwrap();
                fh.write_discard_at(0, 1 << 20).await.unwrap();
                let req = IoRequest::strided(0, 4096, 16384, 32);
                let t0 = h.now();
                if listio {
                    fh.readv_discard(&req).await.unwrap();
                } else {
                    for &(off, len) in req.extents() {
                        fh.read_discard_at(off, len).await.unwrap();
                    }
                }
                h.now() - t0
            });
            sim.run();
            jh.try_take().expect("completed")
        };
        let frag = elapsed(false);
        let list = elapsed(true);
        assert!(
            list < frag,
            "list I/O should beat the fragment loop: {list} vs {frag}"
        );
    }

    #[test]
    fn unix_style_vectored_ops_degenerate_to_the_fragment_loop() {
        // Under the UNIX-style interface readv has no list-I/O call: it
        // must cost exactly the read_at loop and trace one op per
        // fragment (the paper's interface contrast).
        let run = |vectored: bool| -> (SimDuration, u64) {
            let mut sim = Sim::new();
            let (fs, trace) = fixture(&sim);
            let jh = sim.spawn(async move {
                let fh = fs
                    .open(0, Interface::UnixStyle, "u", Some(CreateOptions::default()))
                    .await
                    .unwrap();
                fh.write_discard_at(0, 1 << 20).await.unwrap();
                let req = IoRequest::strided(0, 4096, 16384, 16);
                if vectored {
                    fh.readv_discard(&req).await.unwrap();
                } else {
                    for &(off, len) in req.extents() {
                        fh.read_discard_at(off, len).await.unwrap();
                    }
                }
            });
            let end = sim.run();
            jh.try_take().expect("completed");
            (end - SimTime::ZERO, trace.count(OpKind::Read))
        };
        let (loop_time, loop_reads) = run(false);
        let (vec_time, vec_reads) = run(true);
        assert_eq!(vec_time, loop_time, "UnixStyle readv must not be faster");
        assert_eq!(loop_reads, 16);
        assert_eq!(vec_reads, 16);
    }

    #[test]
    fn readv_and_writev_scatter_gather_in_extent_order() {
        let mut sim = Sim::new();
        let (fs, trace) = fixture(&sim);
        let jh = sim.spawn(async move {
            let fh = fs
                .open(0, Interface::Passion, "sg", Some(stored()))
                .await
                .unwrap();
            // Gather-write: extents listed out of file order; the payload
            // is consumed in extent order.
            let req = IoRequest::from_extents(vec![(100, 4), (0, 4)]);
            fh.writev(&req, b"AAAABBBB").await.unwrap();
            assert_eq!(fh.size(), 104);
            assert_eq!(fh.read_at(0, 4).await.unwrap(), b"BBBB");
            assert_eq!(fh.read_at(100, 4).await.unwrap(), b"AAAA");
            // Scatter-read in a different order again.
            let back = fh
                .readv(&IoRequest::from_extents(vec![(0, 4), (100, 4)]))
                .await
                .unwrap();
            assert_eq!(back, b"BBBBAAAA");
        });
        sim.run();
        jh.try_take().expect("completed");
        // One traced Write + one vectored Read (plus the two read_at).
        assert_eq!(trace.count(OpKind::Write), 1);
        assert_eq!(trace.count(OpKind::Read), 3);
    }

    #[test]
    fn listio_counters_record_request_shape() {
        let mut sim = Sim::new();
        let (fs, trace) = fixture(&sim);
        let jh = sim.spawn(async move {
            let fh = fs
                .open(0, Interface::Passion, "c", Some(CreateOptions::default()))
                .await
                .unwrap();
            fh.write_discard_at(0, 1 << 20).await.unwrap();
            // Legacy calls do not count as list I/O.
            fh.read_discard_at(0, 4096).await.unwrap();
            // Four adjacent fragments coalesce to one extent.
            fh.readv_discard(&IoRequest::strided(0, 4096, 4096, 4))
                .await
                .unwrap();
        });
        sim.run();
        jh.try_take().expect("completed");
        let s = trace.listio().snapshot();
        assert_eq!(s.requests, 1);
        assert_eq!(s.fragments, 4);
        assert_eq!(s.coalesced_extents, 1);
        assert_eq!(s.bytes, 4 * 4096);
    }

    #[test]
    fn open_missing_without_create_errors() {
        let mut sim = Sim::new();
        let (fs, _) = fixture(&sim);
        let jh = sim.spawn(async move {
            fs.open(0, Interface::UnixStyle, "nope", None)
                .await
                .map(|_| ())
        });
        sim.run();
        assert!(matches!(jh.try_take().unwrap(), Err(FsError::NotFound(_))));
    }
}
