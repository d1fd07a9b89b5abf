//! One module per paper table/figure; each returns an
//! [`iosim_trace::report::ExperimentReport`] with the regenerated
//! rows/series and the shape checks against the paper's claims.

pub mod ast;
pub mod btio;
pub mod extensions;
pub mod fft;
pub mod scf11;
pub mod scf30;
pub mod summary;

use iosim_trace::report::ExperimentReport;

/// Experiment ids accepted by the `repro` binary: the paper's tables and
/// figures in order, then the extension studies.
pub const IDS: [&str; 22] = [
    "table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table4",
    "table5", "ext1", "ext2", "ext3", "ext4", "ext5", "ext6", "ext7", "ext8", "ext9", "ext10",
];

/// Ids whose reports come out of one evaluation because they share
/// simulated points: Tables 2–3 describe one pair of SCF 1.1 runs, and
/// Figure 7's Class A bandwidths come from Figure 6's sweep. The first id
/// of each pair names the evaluation.
const SHARED: [[&str; 2]; 2] = [["table2", "table3"], ["fig6", "fig7"]];

/// The id of the evaluation that produces `id`'s report (see
/// [`evaluate`]).
pub fn evaluation_of(id: &str) -> &str {
    SHARED
        .iter()
        .find(|pair| pair.contains(&id))
        .map_or(id, |pair| pair[0])
}

/// Run the evaluation behind `id` and return every report it produces,
/// keyed by experiment id and in [`IDS`] order: both reports of a pair
/// that shares simulated points (Tables 2–3, Figures 6–7), otherwise the
/// one report. `None` for an unknown id.
pub fn evaluate(id: &str, scale: f64) -> Option<Vec<(&'static str, ExperimentReport)>> {
    let id = *IDS.iter().find(|&&known| known == id)?;
    let report = match id {
        "table2" | "table3" => {
            let (t2, t3) = scf11::table2_table3(scale);
            return Some(vec![("table2", t2), ("table3", t3)]);
        }
        "fig6" | "fig7" => {
            let (f6, f7) = btio::fig6_fig7(scale);
            return Some(vec![("fig6", f6), ("fig7", f7)]);
        }
        "table1" => summary::table1(),
        "fig1" => scf11::fig1(scale),
        "fig2" => scf11::fig2(scale),
        "fig3" => scf11::fig3(scale),
        "fig4" => scf30::fig4(scale),
        "fig5" => fft::fig5(scale),
        "table4" => ast::table4(scale),
        "table5" => summary::table5(scale.min(0.2)),
        "ext1" => extensions::ext_hotspot(scale.min(0.2)),
        "ext2" => extensions::ext_sieve_vs_two_phase(scale),
        "ext3" => extensions::ext_collective_buffer(scale),
        "ext4" => extensions::ext_link_contention(scale),
        "ext5" => extensions::ext_disk_vs_recompute(scale),
        "ext6" => extensions::ext_modern_hardware(scale),
        "ext7" => extensions::ext_cache_ablation(scale),
        "ext8" => extensions::ext_listio_ablation(scale),
        "ext9" => extensions::ext_queue_ablation(scale),
        "ext10" => extensions::ext_overload(scale),
        _ => unreachable!("every id in IDS has an arm"),
    };
    Some(vec![(id, report)])
}
