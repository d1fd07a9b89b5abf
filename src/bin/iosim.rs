//! `iosim` — run any of the five applications on a simulated machine with
//! custom parameters, and print the timing summary, the Pablo-style trace
//! table, and the request-size histograms.
//!
//! ```text
//! iosim scf11 --input large --version prefetch --procs 64 --io-nodes 16 --scale 0.25
//! iosim scf30 --cached 90 --procs 64 --io-nodes 64 --scale 0.5
//! iosim fft   --n 1024 --procs 8 --io-nodes 2 --optimized
//! iosim btio  --class a --procs 36 --optimized --dumps 10
//! iosim ast   --procs 64 --io-nodes 16 --grid 1024 --optimized
//! ```

use std::collections::HashMap;

use iosim::apps::RunResult;
use iosim::apps::{ast, btio, fft, scf11, scf30};

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(app) = args.next() else {
        usage();
        return;
    };
    let opts = parse_flags(args);
    if let Some(known) = accepted_flags(&app) {
        opts.reject_unknown(&app, known);
    }
    match app.as_str() {
        "sweep" => {
            run_sweep(&opts);
            return;
        }
        "advise" => {
            run_advise(&opts);
            return;
        }
        _ => {}
    }
    let result = match app.as_str() {
        "scf11" => run_scf11(&opts),
        "scf30" => run_scf30(&opts),
        "fft" => run_fft(&opts),
        "btio" => run_btio(&opts),
        "ast" => run_ast(&opts),
        "replay" => run_replay(&opts),
        "synth" => run_synth(&opts),
        "--help" | "-h" | "help" => {
            usage();
            return;
        }
        other => die(&format!("unknown application '{other}'")),
    };
    print_result(&result);
}

struct Opts(HashMap<String, String>);

impl Opts {
    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.0.get(key) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| die(&format!("bad value for --{key}: {v}"))),
            None => default,
        }
    }
    /// Like [`Opts::get`], but the value must be greater than zero: a
    /// count or a size.
    fn positive<T: std::str::FromStr + PartialOrd + Default>(&self, key: &str, default: T) -> T {
        let v = self.get(key, default);
        // `partial_cmp` so that a NaN is rejected along with zero.
        if v.partial_cmp(&T::default()) != Some(std::cmp::Ordering::Greater) {
            die(&format!("--{key} must be greater than 0"));
        }
        v
    }
    /// A finite real value greater than zero: a scale, rate or duration.
    fn positive_real(&self, key: &str, default: f64) -> f64 {
        let v = self.positive(key, default);
        if !v.is_finite() {
            die(&format!("--{key} must be finite"));
        }
        v
    }
    /// Exit with an error naming the first flag `app` does not take.
    fn reject_unknown(&self, app: &str, known: &[&str]) {
        let mut unknown: Vec<&String> = self
            .0
            .keys()
            .filter(|k| !known.contains(&k.as_str()))
            .collect();
        unknown.sort();
        if let Some(k) = unknown.first() {
            die(&format!("unknown flag --{k} for {app} (see iosim --help)"));
        }
    }
    /// A fraction in `[0, 1]`.
    fn fraction(&self, key: &str, default: f64) -> f64 {
        let v = self.get(key, default);
        if !(0.0..=1.0).contains(&v) {
            die(&format!("--{key} must be in [0, 1]"));
        }
        v
    }
    /// A whole percentage in `[0, 100]`.
    fn percent(&self, key: &str, default: u32) -> u32 {
        let v = self.get(key, default);
        if v > 100 {
            die(&format!("--{key} must be at most 100"));
        }
        v
    }
    fn flag(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }
    fn str_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.0.get(key).map(String::as_str).unwrap_or(default)
    }
}

/// The flags each subcommand reads; anything else is a typo or a flag
/// of another subcommand and is rejected rather than silently ignored.
/// `None` for the help aliases and unknown subcommands.
fn accepted_flags(app: &str) -> Option<&'static [&'static str]> {
    Some(match app {
        "scf11" => &[
            "input",
            "version",
            "procs",
            "io-nodes",
            "mem-kb",
            "stripe-kb",
            "scale",
            "cache",
            "queue-depth",
        ],
        "scf30" => &[
            "io-nodes",
            "unbalanced",
            "no-prefetch",
            "scale",
            "cache",
            "queue-depth",
            "procs",
            "cached",
        ],
        "fft" => &[
            "n",
            "procs",
            "optimized",
            "io-nodes",
            "mem-mb",
            "cache",
            "queue-depth",
        ],
        "btio" => &[
            "class",
            "dumps",
            "verify",
            "cache",
            "queue-depth",
            "procs",
            "optimized",
        ],
        "ast" => &[
            "grid",
            "arrays",
            "dumps",
            "restart",
            "cache",
            "queue-depth",
            "procs",
            "io-nodes",
            "optimized",
        ],
        "replay" => &["trace", "seed", "machine", "collective", "batch", "mode"],
        "synth" => &[
            "rate",
            "bursty",
            "mean-on",
            "mean-off",
            "clients",
            "duration",
            "read-frac",
            "op-kb",
            "fragments",
            "files",
            "file-mb",
            "seed",
            "machine",
            "cache",
            "queue-depth",
            "collective",
            "batch",
            "mode",
        ],
        "sweep" => &[
            "workload",
            "memo",
            "threads",
            "cache",
            "queue-depth",
            "agg",
            "interface",
            "stripe-kb",
            "io-nodes",
            "scale",
            "sample",
            "seed",
            "memo-file",
        ],
        "advise" => &[
            "workload",
            "memo",
            "threads",
            "cache",
            "queue-depth",
            "agg",
            "interface",
            "stripe-kb",
            "io-nodes",
            "coarse",
            "keep",
        ],
        _ => return None,
    })
}

fn parse_flags(args: impl Iterator<Item = String>) -> Opts {
    let mut map = HashMap::new();
    let mut key: Option<String> = None;
    for a in args {
        if let Some(stripped) = a.strip_prefix("--") {
            if let Some(k) = key.take() {
                map.insert(k, String::new()); // boolean flag
            }
            key = Some(stripped.to_string());
        } else if let Some(k) = key.take() {
            map.insert(k, a);
        } else {
            die(&format!("unexpected argument '{a}'"));
        }
    }
    if let Some(k) = key {
        map.insert(k, String::new());
    }
    Opts(map)
}

fn run_scf11(o: &Opts) -> RunResult {
    let input = match o.str_or("input", "small") {
        "small" => scf11::ScfInput::Small,
        "medium" => scf11::ScfInput::Medium,
        "large" => scf11::ScfInput::Large,
        other => die(&format!("unknown input '{other}' (small|medium|large)")),
    };
    let version = match o.str_or("version", "original") {
        "original" | "fortran" => scf11::Scf11Version::Original,
        "passion" => scf11::Scf11Version::Passion,
        "prefetch" => scf11::Scf11Version::PassionPrefetch,
        other => die(&format!(
            "unknown version '{other}' (original|passion|prefetch)"
        )),
    };
    let cfg = scf11::Scf11Config {
        procs: o.positive("procs", 4),
        io_nodes: o.positive("io-nodes", 12),
        mem_kb: o.positive("mem-kb", 64),
        stripe_unit_kb: o.positive("stripe-kb", 64),
        scale: o.positive_real("scale", 1.0),
        cache_mb: o.get("cache", 0),
        queue_depth: o.get("queue-depth", 1),
        ..scf11::Scf11Config::new(input, version)
    };
    eprintln!(
        "SCF 1.1 {} {:?} tuple {}",
        input.name(),
        version,
        cfg.tuple()
    );
    let r = scf11::run(&cfg);
    eprintln!("foreground I/O time: {}", r.fg_io_time);
    r.run
}

fn run_scf30(o: &Opts) -> RunResult {
    let cfg = scf30::Scf30Config {
        io_nodes: o.positive("io-nodes", 16),
        balanced: !o.flag("unbalanced"),
        prefetch: !o.flag("no-prefetch"),
        scale: o.positive_real("scale", 1.0),
        cache_mb: o.get("cache", 0),
        queue_depth: o.get("queue-depth", 1),
        ..scf30::Scf30Config::new(
            scf11::ScfInput::Medium,
            o.positive("procs", 32),
            o.percent("cached", 90),
        )
    };
    eprintln!(
        "SCF 3.0 MEDIUM {}% cached, {} procs, {} I/O nodes",
        cfg.cached_percent, cfg.procs, cfg.io_nodes
    );
    let r = scf30::run(&cfg);
    eprintln!("balance moved: {} KB", r.balance_moved / 1024);
    r.run
}

fn run_fft(o: &Opts) -> RunResult {
    let mut cfg = fft::FftConfig::new(
        o.positive("n", 1024),
        o.positive("procs", 4),
        o.flag("optimized"),
    );
    cfg.io_nodes = o.positive("io-nodes", 2);
    cfg.mem_per_proc = o.positive("mem-mb", 16u64) << 20;
    cfg.cache_mb = o.get("cache", 0);
    cfg.queue_depth = o.get("queue-depth", 1);
    eprintln!(
        "2-D out-of-core FFT {}x{} complex, {} procs, {} I/O nodes, optimized={}",
        cfg.n, cfg.n, cfg.procs, cfg.io_nodes, cfg.optimized
    );
    fft::run(&cfg)
}

fn run_btio(o: &Opts) -> RunResult {
    let class = match o.str_or("class", "a") {
        "a" | "A" => btio::BtClass::A,
        "b" | "B" => btio::BtClass::B,
        other => {
            let n: u64 = other
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .unwrap_or_else(|| die("class must be a, b, or a positive grid size"));
            btio::BtClass::Custom(n)
        }
    };
    let cfg = btio::BtioConfig {
        dumps: o.get("dumps", 40),
        verify: o.flag("verify"),
        cache_mb: o.get("cache", 0),
        queue_depth: o.get("queue-depth", 1),
        ..btio::BtioConfig::new(class, o.positive("procs", 16), o.flag("optimized"))
    };
    eprintln!(
        "BTIO {} ({}³ grid), {} procs, {} dumps, optimized={}",
        class.name(),
        class.n(),
        cfg.procs,
        cfg.dumps,
        cfg.optimized
    );
    btio::run(&cfg)
}

fn run_ast(o: &Opts) -> RunResult {
    let cfg = ast::AstConfig {
        grid: o.positive("grid", 2048),
        arrays: o.positive("arrays", 4),
        dumps: o.get("dumps", 10),
        restart: o.flag("restart"),
        cache_mb: o.get("cache", 0),
        queue_depth: o.get("queue-depth", 1),
        ..ast::AstConfig::new(
            o.positive("procs", 16),
            o.positive("io-nodes", 16),
            o.flag("optimized"),
        )
    };
    eprintln!(
        "AST {}x{} grid, {} arrays, {} procs, {} I/O nodes, optimized={}",
        cfg.grid, cfg.grid, cfg.arrays, cfg.procs, cfg.io_nodes, cfg.optimized
    );
    ast::run(&cfg)
}

fn machine_preset(o: &Opts) -> iosim::machine::MachineConfig {
    match o.str_or("machine", "sp2") {
        "sp2" => iosim::machine::presets::sp2(),
        "paragon" => iosim::machine::presets::paragon_large(),
        "paragon-small" => iosim::machine::presets::paragon_small(),
        other => die(&format!("unknown machine '{other}'")),
    }
}

/// `--mode` plus batching flags into a [`workload::ReplaySpec`] builder.
fn replay_spec(
    o: &Opts,
    machine: iosim::machine::MachineConfig,
) -> iosim::workload::engine::ReplaySpec {
    use iosim::workload::engine::ReplaySpec;
    // `--collective BATCH` is the original spelling of two-phase mode.
    let collective: usize = o.get("collective", 0);
    let batch: usize = o.positive("batch", 32);
    let mode = if collective > 0 {
        "twophase"
    } else {
        o.str_or("mode", "direct")
    };
    match mode {
        "direct" => ReplaySpec::direct(machine),
        "list" | "listio" => ReplaySpec::list_io(machine, batch),
        "twophase" | "two-phase" | "collective" => {
            ReplaySpec::two_phase(machine, if collective > 0 { collective } else { batch })
        }
        other => die(&format!("unknown mode '{other}' (direct|list|twophase)")),
    }
}

fn run_replay(o: &Opts) -> RunResult {
    use iosim::workload;
    let path = o.str_or("trace", "");
    if path.is_empty() {
        die("replay needs --trace FILE");
    }
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
    let stream =
        workload::parse_any(&text, o.get("seed", 42)).unwrap_or_else(|e| die(&e.to_string()));
    let machine = machine_preset(o).with_compute_nodes(stream.ranks().max(1));
    let spec = replay_spec(o, machine);
    eprintln!(
        "replaying {} ops ({} data ops) across {} ranks, {:?} mode",
        stream.ops.len(),
        stream.data_ops(),
        stream.ranks(),
        spec.mode,
    );
    let report = workload::replay(&stream, &spec);
    println!("{}", report.latency.render_line());
    println!(
        "replay rate    : {:.1} ops/s (virtual)",
        report.ops_per_sec()
    );
    report.stats.into()
}

fn run_synth(o: &Opts) -> RunResult {
    use iosim::workload::{ArrivalModel, SynthSpec};
    let rate: f64 = o.positive_real("rate", 20.0);
    let arrival = if o.flag("bursty") {
        ArrivalModel::Bursty {
            on_rate: rate,
            mean_on: o.positive_real("mean-on", 0.1),
            mean_off: o.positive_real("mean-off", 0.3),
        }
        .with_mean_rate(rate)
    } else {
        ArrivalModel::Poisson { rate }
    };
    let synth = SynthSpec {
        clients: o.positive("clients", 64),
        duration: iosim::simkit::time::SimDuration::from_secs_f64(o.positive_real("duration", 1.0)),
        arrival,
        read_frac: o.fraction("read-frac", 0.5),
        op_bytes: o.positive("op-kb", 64u64) << 10,
        fragments: o.get("fragments", 8),
        files: o.positive("files", 4),
        file_bytes: o.positive("file-mb", 64u64) << 20,
        seed: o.get("seed", 42),
    };
    let mut machine = machine_preset(o);
    machine = iosim::apps::common::with_cache_mb(machine, o.get("cache", 0));
    machine = iosim::apps::common::with_queue_depth(machine, o.get("queue-depth", 1));
    let spec = replay_spec(o, machine);
    eprintln!(
        "open-loop: {} clients offering {:.0} ops/s for {}, {:?} mode",
        synth.clients,
        synth.offered_ops_per_sec(),
        synth.duration,
        spec.mode,
    );
    let report = iosim::workload::run_open_loop(&synth, &spec);
    println!("{}", report.latency.render_line());
    println!(
        "offered        : {:.1} ops/s ({} ops)",
        report.offered_rate, report.offered_ops
    );
    println!(
        "achieved       : {:.1} ops/s (ratio {:.2}{})",
        report.achieved_rate,
        report.overload_ratio(),
        if report.overload_ratio() < 0.9 {
            ", past the saturation knee"
        } else {
            ""
        }
    );
    report.stats.into()
}

/// Parse a comma-separated `--flag a,b,c` list; absent flag = `default`.
fn list<T: std::str::FromStr>(o: &Opts, key: &str, default: Vec<T>) -> Vec<T> {
    match o.0.get(key) {
        None => default,
        Some(raw) => raw
            .split(',')
            .map(|v| {
                v.trim()
                    .parse()
                    .unwrap_or_else(|_| die(&format!("bad value in --{key}: {v}")))
            })
            .collect(),
    }
}

/// Build the hint grid the `sweep`/`advise` subcommands search from the
/// per-knob comma-list flags; unmentioned knobs stay at their defaults.
fn hint_grid(o: &Opts) -> iosim::optim::HintGrid {
    use iosim::machine::Interface;
    let d = iosim::optim::Hints::default();
    iosim::optim::HintGrid {
        cache_mb: list(o, "cache", vec![d.cache_mb]),
        io_queue_depth: list(o, "queue-depth", vec![d.io_queue_depth]),
        aggregators: list(o, "agg", vec![d.aggregators]),
        interface: match o.0.get("interface") {
            None => vec![d.interface],
            Some(raw) => raw
                .split(',')
                .map(|v| match v.trim() {
                    "fortran" => Interface::Fortran,
                    "unix" => Interface::UnixStyle,
                    "passion" => Interface::Passion,
                    other => die(&format!(
                        "unknown interface '{other}' (fortran|unix|passion)"
                    )),
                })
                .collect(),
        },
        stripe_unit_kb: list(o, "stripe-kb", vec![d.stripe_unit_kb]),
        io_nodes: list(o, "io-nodes", vec![d.io_nodes]),
    }
}

/// The query workload + batch advisor shared by `sweep` and `advise`.
fn advisor_setup(o: &Opts) -> (&'static str, iosim::bench::advisor::BatchAdvisor) {
    use iosim::apps::hinted::{workload_index, WORKLOADS};
    let name = o.str_or("workload", "synth");
    let Some(idx) = workload_index(name) else {
        die(&format!(
            "unknown workload '{name}' (one of: {})",
            WORKLOADS.join(", ")
        ));
    };
    // `--threads T` is the evaluation fan-out width; without it the
    // `IOSIM_THREADS` pin, else the host's cores.
    let threads = if o.flag("threads") {
        o.get("threads", 1).max(1)
    } else {
        iosim::bench::parallel::default_threads()
    };
    let advisor = iosim::bench::advisor::BatchAdvisor::new(o.get("memo", 256), threads);
    (WORKLOADS[idx], advisor)
}

/// `iosim sweep`: evaluate a batch of what-if queries over a hint grid
/// (full enumeration, or `--sample N --seed S` draws with replacement)
/// through the memoized, deduplicated batch advisor. The report on
/// stdout is deterministic — byte-identical at every `IOSIM_THREADS` —
/// while wall-clock timing goes to stderr.
fn run_sweep(o: &Opts) {
    use iosim::bench::advisor::{render_batch, Query};
    let (workload, mut advisor) = advisor_setup(o);
    let grid = hint_grid(o);
    if grid.is_empty() {
        die("sweep grid is empty");
    }
    let sample: usize = o.get("sample", 0);
    let hints = if sample > 0 {
        grid.sample(sample, o.get("seed", 42))
    } else {
        grid.enumerate()
    };
    let queries: Vec<Query> = hints
        .into_iter()
        .map(|h| Query::new(workload, h).expect("workload validated above"))
        .collect();
    let scale: f64 = o.positive_real("scale", 1.0);
    if scale > 1.0 {
        die("--scale must be in (0, 1]");
    }
    // --memo-file persists the memo cache across processes (--memo N is
    // the in-memory capacity). A missing or corrupt file starts cold.
    let memo_file = o.0.get("memo-file").map(std::path::PathBuf::from);
    if let Some(path) = &memo_file {
        let n = advisor.load(path);
        eprintln!("memo file: restored {n} entries from {}", path.display());
    }
    eprintln!(
        "sweep: {} queries over a {}-point grid, workload {workload}, scale {scale}",
        queries.len(),
        grid.len(),
    );
    let t0 = std::time::Instant::now();
    let report = advisor
        .evaluate(&queries, scale)
        .unwrap_or_else(|e| die(&e.to_string()));
    let wall = t0.elapsed();
    print!("{}", render_batch(&report));
    let (hits, misses, evictions) = advisor.memo_counters();
    println!("memo: hits={hits} misses={misses} evictions={evictions}");
    if let Some(path) = &memo_file {
        match advisor.save(path) {
            Ok(n) => eprintln!("memo file: saved {n} entries to {}", path.display()),
            Err(e) => eprintln!("memo file: save failed: {e}"),
        }
    }
    eprintln!(
        "host: {:.1} ms ({:.1} queries/s)",
        wall.as_secs_f64() * 1e3,
        report.stats.queries as f64 / wall.as_secs_f64().max(1e-9)
    );
}

/// `iosim advise`: successive-halving auto-tune over a hint grid —
/// coarse low-fidelity rounds prune the grid before the survivors get
/// full-fidelity runs; prints the winner and the time-vs-cache-memory
/// Pareto frontier. Deterministic report on stdout, timing on stderr.
fn run_advise(o: &Opts) {
    use iosim::bench::advisor::{render_advise, AdviseOpts};
    let (workload, mut advisor) = advisor_setup(o);
    let grid = hint_grid(o);
    if grid.is_empty() {
        die("advise grid is empty");
    }
    let defaults = AdviseOpts::default();
    let opts = AdviseOpts {
        coarse_scale: o.get("coarse", defaults.coarse_scale),
        final_keep: o.get("keep", defaults.final_keep),
    };
    if !(opts.coarse_scale > 0.0 && opts.coarse_scale <= 1.0) {
        die("--coarse must be in (0, 1]");
    }
    eprintln!(
        "advise: {}-point grid, workload {workload}, coarse scale {}, keep {}",
        grid.len(),
        opts.coarse_scale,
        opts.final_keep,
    );
    let t0 = std::time::Instant::now();
    let report = advisor
        .advise(workload, &grid, &opts)
        .unwrap_or_else(|e| die(&e.to_string()));
    let wall = t0.elapsed();
    print!("{}", render_advise(&report));
    eprintln!("host: {:.1} ms", wall.as_secs_f64() * 1e3);
}

fn print_result(r: &RunResult) {
    println!("execution time : {}", r.exec_time);
    println!(
        "I/O time (wall): {}  ({:.1}% of exec)",
        r.io_time,
        100.0 * r.io_fraction()
    );
    println!(
        "I/O volume     : {:.2} MB over {} operations",
        r.io_bytes as f64 / 1e6,
        r.io_ops
    );
    println!("I/O bandwidth  : {:.2} MB/s", r.bandwidth_mb_s());
    println!(
        "scheduler      : {} polls in {:.1} ms host ({:.0} events/s)",
        r.sim_events,
        r.host_elapsed.as_secs_f64() * 1e3,
        r.events_per_sec()
    );
    if !r.cache.is_empty() {
        println!("{}", r.cache.render_line());
    }
    if !r.listio.is_empty() {
        println!("{}", r.listio.render_line());
    }
    if !r.queue.is_empty() {
        println!("{}", r.queue.render_line());
        if let Some(batching) = r.queue.render_batching_line() {
            println!("{batching}");
        }
    }
    println!();
    println!(
        "{}",
        r.summary
            .render("I/O trace (cumulative across ranks)", r.cum_exec_time())
    );
}

fn usage() {
    println!(
        "usage: iosim <scf11|scf30|fft|btio|ast|replay|synth|sweep|advise> [--flag value]...\n\
         \n\
         common flags (where the application takes them; unknown flags are rejected):\n\
         \x20             --procs N --io-nodes N --scale X --optimized\n\
         \x20             --cache MB   per-I/O-node LRU buffer cache (0 = off, the default)\n\
         \x20             --queue-depth N   I/O-node command-queue depth (1 = FIFO, the default)\n\
         scf11: --input small|medium|large --version original|passion|prefetch --mem-kb N --stripe-kb N\n\
         scf30: --cached PCT --unbalanced --no-prefetch\n\
         fft:   --n N --mem-mb N\n\
         btio:  --class a|b|N --dumps N --verify\n\
         ast:   --grid N --arrays N --dumps N --restart\n\
         replay: --trace FILE [--mode direct|list|twophase] [--batch N] [--seed N]\n\
         \x20       [--machine sp2|paragon|paragon-small]  (--collective BATCH = legacy twophase)\n\
         \x20       trace formats: legacy 4-column, #iosim opstream, #iosim darshan (auto-detected)\n\
         synth: --clients N --rate R [--bursty --mean-on S --mean-off S] --duration S\n\
         \x20      --read-frac F --op-kb N --fragments N --files N --file-mb N --seed N\n\
         \x20      [--mode direct|list|twophase] [--batch N] [--cache MB] [--queue-depth N]\n\
         sweep: --workload scf11|scf30|fft|btio|ast|synth + comma-list knobs\n\
         \x20      --cache A,B --queue-depth A,B --agg A,B --interface fortran,unix,passion\n\
         \x20      --stripe-kb A,B --io-nodes A,B\n\
         \x20      [--sample N --seed S] [--scale F] [--memo N] [--memo-file PATH] [--threads T]\n\
         \x20      (T: simulations run at once; default $IOSIM_THREADS, else the host's cores)\n\
         advise: --workload scf11|scf30|fft|btio|ast|synth + comma-list knobs\n\
         \x20      --cache A,B --queue-depth A,B --agg A,B --interface fortran,unix,passion\n\
         \x20      --stripe-kb A,B --io-nodes A,B\n\
         \x20      [--coarse F] [--keep N] [--memo N] [--threads T]\n\
         \x20      (successive halving: coarse rounds prune, survivors run full fidelity)"
    );
}

fn die(msg: &str) -> ! {
    eprintln!("iosim: {msg}");
    std::process::exit(2);
}
