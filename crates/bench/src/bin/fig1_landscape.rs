//! Figure 1: "Our vision and the current state of systems."
//!
//! The paper's Figure 1 places operating systems on a plane of code size
//! (tens of millions → thousands of lines) versus safety level (no
//! guarantees → type safety → ownership safety → functional verification),
//! with an arrow for the proposed incremental path. This binary reprints
//! that landscape (sizes from each system's published reports) and then
//! *measures* this workspace's own crates from source and places them on
//! the same axes — the reproduction's instance of "Safe Linux,
//! incremental progress".

use std::path::Path;

use sk_bench::count_loc;

fn main() {
    println!("== Figure 1: safety level vs code size ==\n");
    println!("{:<14} {:>12}  safety level", "system", "LoC");
    println!("{:-<14} {:->12}  {:-<24}", "", "", "");
    // Published/approximate sizes, as in the paper's Figure 1 bands.
    let landscape: &[(&str, u64, &str)] = &[
        ("Linux", 27_800_000, "no guarantees"),
        ("FreeBSD", 7_900_000, "no guarantees"),
        ("Singularity", 300_000, "type safety"),
        ("Biscuit", 58_000, "type safety"),
        ("Theseus", 38_000, "ownership safety"),
        ("RedLeaf", 30_000, "ownership safety"),
        ("seL4", 10_000, "functional verification"),
        ("Hyperkernel", 7_000, "functional verification"),
    ];
    for (name, loc, level) in landscape {
        println!("{name:<14} {loc:>12}  {level}");
    }

    println!("\n-- this workspace (measured from source) --\n");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let crates: &[(&str, &str)] = &[
        (
            "crates/ksim",
            "substrate (simulated kernel: block, cache, locks, workqueue)",
        ),
        ("crates/legacy", "no guarantees (the C idiom, emulated)"),
        ("crates/fs-legacy", "no guarantees (Step 0 baseline)"),
        ("crates/core", "the incremental-safety framework"),
        ("crates/vfs", "modular interfaces (Step 1)"),
        (
            "crates/fs-safe",
            "ownership safety + checked refinement (Steps 2-4)",
        ),
        ("crates/netstack", "Step 0 and Steps 1-2, side by side"),
        ("crates/cvedb", "bug-study analysis"),
        ("crates/faultgen", "prevention study"),
        ("crates/bench", "harness"),
    ];
    let mut rows = Vec::new();
    let mut total = 0;
    for (dir, level) in crates {
        let loc = count_loc(&root.join(dir)).unwrap_or(0);
        total += loc;
        rows.push((*dir, loc, *level));
    }
    for (dir, loc, level) in &rows {
        println!("{dir:<18} {loc:>9}  {level}");
    }
    println!("{:-<18} {:->9}", "", "");
    println!("{:<18} {total:>9}  (workspace total)", "all crates");
    println!(
        "\nThe incremental-progress arrow: the same VFS workload runs on \
         cext4 (no guarantees) and on rsfs (ownership-safe, refinement-\n\
         checked) behind one interface handle — see \
         examples/incremental_migration.rs."
    );

    // Machine-readable output for EXPERIMENTS.md.
    let json: Vec<String> = landscape
        .iter()
        .map(|(n, l, s)| format!("{{\"system\":\"{n}\",\"loc\":{l},\"safety\":\"{s}\"}}"))
        .chain(
            rows.iter()
                .map(|(n, l, s)| format!("{{\"system\":\"{n}\",\"loc\":{l},\"safety\":\"{s}\"}}")),
        )
        .collect();
    println!("\nJSON: [{}]", json.join(","));
}
