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
    InsertionPolicy, LeafEntry, MetricTree, Node, PageId, PagedTree, Rtree3D, StrTree, TbTree,
    TrajectoryIndex,
};
use mst_prng::Rng;
use mst_trajectory::{Mbb, SamplePoint, Segment, TrajectoryId};

const OBJECTS: usize = 24;
const STEPS: u32 = 160;

/// The pinned fleet.
fn fleet() -> Vec<LeafEntry> {
    walks(OBJECTS, STEPS)
}

/// Random walks, gap-free per object (the metric tree insists), emitted in
/// temporal order: step by step, object by object.
fn walks(objects: usize, steps: u32) -> Vec<LeafEntry> {
    let mut rng = Rng::seed_from(0x5EED_0016);
    let mut at: Vec<(f64, f64)> = (0..objects)
        .map(|_| (rng.f64_range(0.0, 1000.0), rng.f64_range(0.0, 1000.0)))
        .collect();
    let mut out = Vec::new();
    for step in 0..steps {
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

/// Builds every substrate from `fleet` (inserted in the order given), plus
/// a bulk-loaded R-tree and an R-tree that deletes every fifth entry of the
/// first three quarters before inserting the rest, and returns each one's
/// image digests, labelled as in [`PINNED`].
fn every_image(fleet: &[LeafEntry]) -> [(&'static str, (u32, u32)); 6] {
    let mut rtree = Rtree3D::new();
    let mut strtree = StrTree::new();
    let mut tbtree = TbTree::new();
    let mut metric = MetricTree::new();
    for e in fleet {
        rtree.insert(*e).expect("rtree insert");
        strtree.insert(*e).expect("strtree insert");
        tbtree.insert(*e).expect("tbtree insert");
        metric.insert(*e).expect("metric insert");
    }
    assert!(rtree.height() >= 3, "the fleet must grow a real directory");

    let bulk = Rtree3D::bulk_load(fleet.to_vec()).expect("bulk load");

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

    [
        ("rtree", image_digests(rtree)),
        ("strtree", image_digests(strtree)),
        ("tbtree", image_digests(tbtree)),
        ("metric", image_digests(metric)),
        ("rtree bulk-loaded", image_digests(bulk)),
        ("rtree insert/delete mix", image_digests(mixed)),
    ]
}

#[test]
fn every_substrate_builds_the_pinned_image() {
    let got = every_image(&fleet());
    assert_eq!(got, PINNED, "got {got:#x?}");
}

/// Geometry where `==` and bit equality part ways, or where a box barely
/// grows: four kinds of object, all stepping at the same integer times.
///
/// * signed zeros — every coordinate is `+0.0` or `-0.0`, with an
///   occasional unit step, so boxes fold `+0.0` against `-0.0`;
/// * far out — coordinates near `1e9`, moving by a few ulps or a few units;
/// * parked — zero-length segments: an object stands still for runs of
///   steps, then jumps;
/// * split second — each step is a segment of one ulp's duration followed
///   by the rest of the step, so start times repeat across objects at the
///   integers and at the ulp after them.
///
/// Gap-free per object (the metric tree insists) and emitted in arrival
/// order (start time, object, sequence), as a live feed delivers it.
fn degenerate_fleet(objects: u64, steps: u32) -> Vec<LeafEntry> {
    let mut rng = Rng::seed_from(0xDE6E_0044);
    let zero = |rng: &mut Rng| {
        if rng.f64_range(0.0, 1.0) < 0.5 {
            0.0
        } else {
            -0.0
        }
    };
    let mut out = Vec::new();
    for traj in 0..objects {
        let mut seq = 0u32;
        let mut push = |t0: f64, p: (f64, f64), t1: f64, q: (f64, f64)| {
            out.push(LeafEntry {
                traj: TrajectoryId(traj),
                seq,
                segment: Segment::new(
                    SamplePoint::new(t0, p.0, p.1),
                    SamplePoint::new(t1, q.0, q.1),
                )
                .expect("a degenerate step still moves forward in time"),
            });
            seq += 1;
        };
        let mut at = match traj % 4 {
            0 => (0.0, -0.0),
            1 => (
                1e9 + rng.f64_range(-50.0, 50.0),
                -1e9 + rng.f64_range(-50.0, 50.0),
            ),
            _ => (rng.f64_range(0.0, 100.0), rng.f64_range(0.0, 100.0)),
        };
        for step in 0..steps {
            let t = f64::from(step);
            let next = match traj % 4 {
                0 if rng.f64_range(0.0, 1.0) < 0.1 => (zero(&mut rng) + 1.0, zero(&mut rng)),
                0 => (zero(&mut rng), zero(&mut rng)),
                1 if rng.f64_range(0.0, 1.0) < 0.5 => {
                    let ulps = rng.f64_range(-4.0, 4.0).round() as i64;
                    (
                        f64::from_bits(at.0.to_bits().wrapping_add_signed(ulps)),
                        at.1,
                    )
                }
                1 => (
                    at.0 + rng.f64_range(-3.0, 3.0),
                    at.1 + rng.f64_range(-3.0, 3.0),
                ),
                2 if rng.f64_range(0.0, 1.0) < 0.8 => at,
                _ => (
                    at.0 + rng.f64_range(-5.0, 5.0),
                    at.1 + rng.f64_range(-5.0, 5.0),
                ),
            };
            if traj % 4 == 3 {
                let blink = t.next_up();
                push(t, at, blink, at);
                push(blink, at, t + 1.0, next);
            } else {
                push(t, at, t + 1.0, next);
            }
            at = next;
        }
    }
    out.sort_by(LeafEntry::arrival_cmp);
    out
}

/// [`PINNED`] for [`degenerate_fleet`], computed before the insert path
/// learned to edit pages in place: an in-place box or entry that differs
/// from the decode/encode round trip by a single sign bit moves a digest.
const PINNED_DEGENERATE: [(&str, (u32, u32)); 6] = [
    ("rtree", (0xc489_f655, 0xc489_f655)),
    ("strtree", (0x911e_fd17, 0x911e_fd17)),
    ("tbtree", (0x2211_6441, 0x2211_6441)),
    ("metric", (0xe562_43bb, 0xd1e4_e545)),
    ("rtree bulk-loaded", (0x42af_c7cc, 0x42af_c7cc)),
    ("rtree insert/delete mix", (0xe2a2_3805, 0xe2a2_3805)),
];

#[test]
fn degenerate_geometry_builds_the_pinned_image() {
    let fleet = degenerate_fleet(16, 200);
    for kind in 0..4 {
        assert!(
            fleet.iter().any(|e| e.traj.0 % 4 == kind),
            "every kind of degenerate object is present"
        );
    }
    assert!(fleet
        .iter()
        .any(|e| e.segment.start().x.to_bits() == (-0.0f64).to_bits()));
    assert!(fleet
        .iter()
        .any(|e| e.segment.start().x.to_bits() == 0.0f64.to_bits()));
    let got = every_image(&fleet);
    assert_eq!(got, PINNED_DEGENERATE, "got {got:#x?}");
}

/// Every leaf entry, in depth-first order of the tree.
fn leaf_entries_depth_first(tree: &Rtree3D) -> Vec<LeafEntry> {
    let mut out = Vec::new();
    let mut stack: Vec<PageId> = tree.root().into_iter().collect();
    while let Some(page) = stack.pop() {
        match tree.read_node(page).expect("read") {
            Node::Leaf { entries, .. } => out.extend(entries),
            Node::Internal { entries, .. } => stack.extend(entries.iter().rev().map(|e| e.child)),
        }
    }
    out
}

/// Buffer misses of a stream of range windows run after one cold start:
/// the LRU carries pages from window to window, so the count depends on
/// the buffer's capacity.
fn stream_misses(tree: &mut Rtree3D) -> u64 {
    tree.clear_buffer().expect("cold start");
    tree.reset_stats();
    let mut rng = Rng::seed_from(0xC01D);
    for _ in 0..120 {
        let (x, y, t) = (
            rng.f64_range(0.0, 700.0),
            rng.f64_range(0.0, 700.0),
            rng.f64_range(0.0, 110.0),
        );
        let window = Mbb::new(x, y, t, x + 300.0, y + 300.0, t + 40.0);
        tree.range_query(&window).expect("range query");
    }
    tree.stats().buffer.misses
}

/// One tree, one buffer, whatever its history: a tree grown to 100 pages
/// (a 10-page buffer by the paper's 10% rule) and then shrunk below that
/// by deletes pages exactly like its image saved and loaded again, which
/// sizes the buffer by the live pages.
#[test]
fn a_shrunken_tree_misses_like_its_reloaded_image() {
    const GROWN: usize = 100;
    let mut live = Rtree3D::new();
    for e in walks(30, 150) {
        live.insert(e).expect("insert");
        if live.num_pages() == GROWN {
            break;
        }
    }
    assert_eq!(live.num_pages(), GROWN, "the fleet must grow the tree");
    // Deleting in the order the delete's own depth-first search meets the
    // leaves keeps each search short.
    for e in leaf_entries_depth_first(&live) {
        assert!(live.delete(e.traj, e.seq).expect("delete"));
        if live.num_pages() < GROWN {
            break;
        }
    }
    assert!(live.num_pages() < GROWN, "the deletes must free a page");
    let mut image = Vec::new();
    live.save(&mut image).expect("save");
    let mut reloaded = Rtree3D::load(&image[..]).expect("load");
    assert_eq!(stream_misses(&mut live), stream_misses(&mut reloaded));
}
