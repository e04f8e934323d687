//! Pins the tree shape every substrate builds from one seeded fleet.
//!
//! The digests below are the FNV fold of each substrate's `save()` bytes,
//! computed on the commit before the four hand-copied trees were folded
//! into one core. Byte-identical images mean the same pages in the same
//! slots with the same free list, tips and parents — which is what makes
//! `pages_per_query` and `index_mb` provably unchanged by a refactor of
//! the insertion machinery. Run under `--features paranoid` as well: the
//! shared post-mutation audit then walks all four structures after every
//! insert and delete.

use mst_index::checksum::fold_bytes;
use mst_index::{
    InsertionPolicy, LeafEntry, MetricTree, PagedTree, Rtree3D, StrTree, TbTree, TrajectoryIndex,
};
use mst_prng::Rng;
use mst_trajectory::{SamplePoint, Segment, TrajectoryId};

const OBJECTS: usize = 24;
const STEPS: u32 = 160;

/// Random walks, gap-free per object (the metric tree insists), emitted in
/// temporal order: step by step, object by object.
fn fleet() -> Vec<LeafEntry> {
    let mut rng = Rng::seed_from(0x5EED_0016);
    let mut at: Vec<(f64, f64)> = (0..OBJECTS)
        .map(|_| (rng.f64_range(0.0, 1000.0), rng.f64_range(0.0, 1000.0)))
        .collect();
    let mut out = Vec::new();
    for step in 0..STEPS {
        for (id, pos) in at.iter_mut().enumerate() {
            let next = (
                pos.0 + rng.f64_range(-9.0, 9.0),
                pos.1 + rng.f64_range(-9.0, 9.0),
            );
            let t = f64::from(step);
            out.push(LeafEntry {
                traj: TrajectoryId(id as u64),
                seq: step,
                segment: Segment::new(
                    SamplePoint::new(t, pos.0, pos.1),
                    SamplePoint::new(t + 1.0, next.0, next.1),
                )
                .expect("a random step has positive duration"),
            });
            *pos = next;
        }
    }
    out
}

/// Digest of a tree's saved image, and of the image its reload saves
/// again (loading is part of the pinned behaviour too).
fn image_digests<P: InsertionPolicy>(mut tree: PagedTree<P>) -> (u32, u32) {
    let mut first = Vec::new();
    tree.save(&mut first).expect("save");
    let mut back = PagedTree::<P>::load(&first[..]).expect("load");
    assert_eq!(back.num_entries(), tree.num_entries());
    let mut second = Vec::new();
    back.save(&mut second).expect("save again");
    (fold_bytes(&first), fold_bytes(&second))
}

/// `(first save, save after reload)` per tree, computed on the parent of
/// the one-core refactor.
const PINNED: [(&str, (u32, u32)); 6] = [
    ("rtree", (0xe166_8cc5, 0xe166_8cc5)),
    ("strtree", (0x78f1_bc01, 0x78f1_bc01)),
    ("tbtree", (0xddf7_3c01, 0xddf7_3c01)),
    ("metric", (0x1741_0a5a, 0xfecf_faa8)),
    ("rtree bulk-loaded", (0xd4e7_00b0, 0xd4e7_00b0)),
    ("rtree insert/delete mix", (0x2fa2_a1a6, 0x2fa2_a1a6)),
];

#[test]
fn every_substrate_builds_the_pinned_image() {
    let fleet = fleet();

    let mut rtree = Rtree3D::new();
    let mut strtree = StrTree::new();
    let mut tbtree = TbTree::new();
    let mut metric = MetricTree::new();
    for e in &fleet {
        rtree.insert(*e).expect("rtree insert");
        strtree.insert(*e).expect("strtree insert");
        tbtree.insert(*e).expect("tbtree insert");
        metric.insert(*e).expect("metric insert");
    }
    assert!(rtree.height() >= 3, "the fleet must grow a real directory");

    let bulk = Rtree3D::bulk_load(fleet.clone()).expect("bulk load");

    // Insert/delete mix: condense, orphan reinsertion, the free list and
    // page reuse all leave their mark on the image.
    let mut mixed = Rtree3D::new();
    let (head, tail) = fleet.split_at(fleet.len() * 3 / 4);
    for e in head {
        mixed.insert(*e).expect("insert");
    }
    for e in head.iter().step_by(5) {
        assert!(mixed.delete(e.traj, e.seq).expect("delete"));
    }
    for e in tail {
        mixed.insert(*e).expect("insert after deletes");
    }

    let got = [
        ("rtree", image_digests(rtree)),
        ("strtree", image_digests(strtree)),
        ("tbtree", image_digests(tbtree)),
        ("metric", image_digests(metric)),
        ("rtree bulk-loaded", image_digests(bulk)),
        ("rtree insert/delete mix", image_digests(mixed)),
    ];
    assert_eq!(got, PINNED, "got {got:#x?}");
}
