//! Ablation — why three trees (and the excluded corner)?
//!
//! DESIGN.md calls out TTO's central trade-off: a third disjoint tree is
//! only possible if one corner stops training. This ablation compares the
//! paper's 3-tree TTO against a 2-tree variant that keeps all N chiplets
//! training, on both raw AllReduce bandwidth and end-to-end epoch time.

use meshcoll_bench::{fmt_bytes, mib, Cli, DnnModel, Mesh, Record, SimContext, SweepSize};
use meshcoll_collectives::{tto, Algorithm};
use meshcoll_compute::ChipletConfig;
use meshcoll_sim::epoch::{epoch_time, EpochParams};

fn main() {
    let cli = Cli::parse();
    let data = match cli.sweep {
        SweepSize::Quick => mib(8),
        SweepSize::Default => mib(32),
        SweepSize::Full => mib(128),
    };
    let engine = SimContext::new().paper_engine();
    let runner = cli.runner();
    let mut records = Vec::new();

    println!("Ablation: TTO's three trees vs a two-tree, no-exclusion variant");
    println!("\n-- AllReduce bandwidth ({} data) --", fmt_bytes(data));
    println!(
        "{:<8} {:>14} {:>14} {:>10}",
        "mesh", "3 trees GB/s", "2 trees GB/s", "ratio"
    );
    let sides = [4usize, 5, 8, 9];
    let engine_ref = &engine;
    let bandwidths = runner.run(&sides, |&n| {
        let mesh = Mesh::square(n).unwrap_or_else(|e| panic!("{n}x{n} mesh: {e}"));
        let three = {
            let s = Algorithm::Tto
                .schedule(&mesh, data)
                .unwrap_or_else(|e| panic!("TTO schedule on {mesh}: {e}"));
            let r = engine_ref
                .run(&mesh, &s)
                .unwrap_or_else(|e| panic!("simulating TTO on {mesh}: {e}"));
            r.bandwidth_gbps(data)
        };
        let two = {
            let s = tto::two_tree_schedule_with(&mesh, data, tto::DEFAULT_CHUNK_BYTES)
                .unwrap_or_else(|e| panic!("two-tree schedule on {mesh}: {e}"));
            let r = engine_ref
                .run(&mesh, &s)
                .unwrap_or_else(|e| panic!("simulating two-tree TTO on {mesh}: {e}"));
            r.bandwidth_gbps(data)
        };
        (mesh, three, two)
    });
    for (mesh, three, two) in &bandwidths {
        println!(
            "{:<8} {:>14.1} {:>14.1} {:>10.2}",
            mesh.to_string(),
            three,
            two,
            three / two
        );
        records.push(
            Record::new(
                "ablation_tto_trees",
                &mesh.to_string(),
                "TTO",
                &fmt_bytes(data),
            )
            .with("three_tree_gbps", *three)
            .with("two_tree_gbps", *two),
        );
    }

    println!("\n-- End-to-end epoch (ResNet152): does the extra trainer pay for itself? --");
    println!(
        "{:<8} {:>14} {:>14} {:>12}",
        "mesh", "3 trees (s)", "2 trees (s)", "3-tree wins"
    );
    let model = DnnModel::ResNet152.model();
    let chiplet = ChipletConfig::paper_default();
    let params = EpochParams::default();
    let epoch_sides = [4usize, 8];
    let (model_ref, chiplet_ref, params_ref) = (&model, &chiplet, &params);
    let epochs = runner.run(&epoch_sides, |&n| {
        let mesh = Mesh::square(n).unwrap_or_else(|e| panic!("{n}x{n} mesh: {e}"));
        let three = epoch_time(
            engine_ref,
            &mesh,
            Algorithm::Tto,
            model_ref,
            chiplet_ref,
            params_ref,
        )
        .unwrap_or_else(|e| panic!("TTO epoch time on {mesh}: {e}"))
        .epoch_ns()
            / 1e9;
        // Two-tree variant: all N chiplets train (baseline iteration count),
        // with the two-tree AllReduce time.
        let two_sched = tto::two_tree_schedule_with(
            &mesh,
            model_ref.gradient_bytes(4),
            tto::DEFAULT_CHUNK_BYTES,
        )
        .unwrap_or_else(|e| panic!("two-tree schedule on {mesh}: {e}"));
        let two_ar = engine_ref
            .run(&mesh, &two_sched)
            .unwrap_or_else(|e| panic!("simulating two-tree on {mesh}: {e}"))
            .total_time_ns;
        let base = epoch_time(
            engine_ref,
            &mesh,
            Algorithm::Ring,
            model_ref,
            chiplet_ref,
            params_ref,
        )
        .unwrap_or_else(|e| panic!("Ring epoch time on {mesh}: {e}"));
        let two = base.iterations as f64 * (base.compute_ns + two_ar) / 1e9;
        (mesh, three, two)
    });
    for (mesh, three, two) in &epochs {
        println!(
            "{:<8} {:>14.1} {:>14.1} {:>12}",
            mesh.to_string(),
            three,
            two,
            if three < two { "yes" } else { "no" }
        );
        records.push(
            Record::new(
                "ablation_tto_trees",
                &mesh.to_string(),
                "TTO",
                "ResNet152-epoch",
            )
            .with("three_tree_epoch_s", *three)
            .with("two_tree_epoch_s", *two),
        );
    }

    println!(
        "\n(expected: the third tree buys ~1.5x AllReduce bandwidth; for communication-heavy \
         training the bandwidth win dominates the lost trainer, vindicating the paper's choice)"
    );
    cli.save("ablation_tto_trees", &records);
}
