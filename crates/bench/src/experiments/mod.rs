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

/// Run every experiment at the given scale (1.0 = paper scale) and return
/// the reports in paper order.
pub fn all(scale: f64) -> Vec<ExperimentReport> {
    let mut out = Vec::new();
    out.push(summary::table1());
    let (t2, t3) = scf11::table2_table3(scale);
    out.push(t2);
    out.push(t3);
    out.push(scf11::fig1(scale));
    out.push(scf11::fig2(scale));
    out.push(scf11::fig3(scale));
    out.push(scf30::fig4(scale));
    out.push(fft::fig5(scale));
    out.push(btio::fig6(scale));
    out.push(btio::fig7(scale));
    out.push(ast::table4(scale));
    out.push(summary::table5(scale.min(0.2)));
    out.push(extensions::ext_hotspot(scale.min(0.2)));
    out.push(extensions::ext_sieve_vs_two_phase(scale));
    out.push(extensions::ext_collective_buffer(scale));
    out.push(extensions::ext_link_contention(scale));
    out.push(extensions::ext_disk_vs_recompute(scale));
    out.push(extensions::ext_modern_hardware(scale));
    out.push(extensions::ext_cache_ablation(scale));
    out.push(extensions::ext_listio_ablation(scale));
    out.push(extensions::ext_queue_ablation(scale));
    out.push(extensions::ext_overload(scale));
    out
}

/// Experiment ids accepted by the `repro` binary: the paper's tables and
/// figures in order, then the extension studies.
pub const IDS: [&str; 22] = [
    "table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table4",
    "table5", "ext1", "ext2", "ext3", "ext4", "ext5", "ext6", "ext7", "ext8", "ext9", "ext10",
];

/// Run one experiment by id.
pub fn by_id(id: &str, scale: f64) -> Option<ExperimentReport> {
    Some(match id {
        "table1" => summary::table1(),
        "table2" => scf11::table2_table3(scale).0,
        "table3" => scf11::table2_table3(scale).1,
        "fig1" => scf11::fig1(scale),
        "fig2" => scf11::fig2(scale),
        "fig3" => scf11::fig3(scale),
        "fig4" => scf30::fig4(scale),
        "fig5" => fft::fig5(scale),
        "fig6" => btio::fig6(scale),
        "fig7" => btio::fig7(scale),
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
        _ => return None,
    })
}
