//! **Fig. 3** — illustration of the hierarchical sampling.
//!
//! The paper shows (a) the anchor-net samples `X_i*` selected in every leaf
//! of a 2D dataset and (b) the farfield samples `Y_i*` of the bottom-left
//! corner node. This harness regenerates both point sets, prints summary
//! counts, and (with `--json`) dumps the coordinates for replotting.

use h2_bench::{json_record, write_json, Args};
use h2_points::admissibility::build_block_lists;
use h2_points::gen;
use h2_points::tree::{ClusterTree, TreeParams};
use h2_sampling::{hierarchical_sample, SampleParams};

fn main() {
    let args = Args::parse();
    let n = if args.full { 10_000 } else { 2_000 };
    let n = args.sizes.as_ref().map_or(n, |s| s[0]);
    let pts = gen::uniform_cube(n, 2, args.seed);
    let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(64));
    let lists = build_block_lists(&tree, 0.7);
    let params = SampleParams {
        node_samples: 12,
        far_samples: 40,
    };
    let samples = hierarchical_sample(&tree, &lists, &params);

    println!("Fig. 3 hierarchical sampling: n={n}, 2D unit square\n");
    let leaf_sample_total: usize = tree.leaves().iter().map(|&l| samples.x_star[l].len()).sum();
    println!(
        "(a) leaf samples X_i*: {} leaves, {} samples total ({:.1} per leaf)",
        tree.leaves().len(),
        leaf_sample_total,
        leaf_sample_total as f64 / tree.leaves().len() as f64
    );

    // The bottom-left corner leaf: smallest center coordinate sum.
    let corner = *tree
        .leaves()
        .iter()
        .min_by(|&&a, &&b| {
            let ca: f64 = tree.node(a).bbox.center().iter().sum();
            let cb: f64 = tree.node(b).bbox.center().iter().sum();
            ca.total_cmp(&cb)
        })
        .unwrap();
    let y = &samples.y_star[corner];
    println!(
        "(b) corner node {corner}: |X_i| = {}, farfield samples |Y_i*| = {}",
        tree.node(corner).len(),
        y.len()
    );
    // Farfield samples must keep away from the node itself.
    let c = tree.node(corner).bbox.center();
    let min_d = y
        .iter()
        .map(|&p| h2_points::pointset::dist(pts.point(p), &c))
        .fold(f64::INFINITY, f64::min);
    println!("    nearest farfield sample at distance {min_d:.3} from the node center");

    if args.json.is_some() {
        json_record! {
            struct Dump {
                points: Vec<Vec<f64>>,
                leaf_samples: Vec<Vec<f64>>,
                corner_node_points: Vec<Vec<f64>>,
                corner_farfield_samples: Vec<Vec<f64>>,
            }
        }
        let coords = |idx: &[usize]| -> Vec<Vec<f64>> {
            idx.iter().map(|&i| pts.point(i).to_vec()).collect()
        };
        let all: Vec<usize> = (0..pts.len()).collect();
        let leaf_samples: Vec<usize> = tree
            .leaves()
            .iter()
            .flat_map(|&l| samples.x_star[l].iter().copied())
            .collect();
        let dump = Dump {
            points: coords(&all),
            leaf_samples: coords(&leaf_samples),
            corner_node_points: coords(tree.node_indices(corner)),
            corner_farfield_samples: coords(y),
        };
        write_json(&args.json, dump);
    }
}
