//! The traced run's extras: per-layer metrics and the onion.
//!
//! Every layer is measured **from outside**, by timing calls into its
//! public functions. Unit costs come from [`crate::micro`] fed with inputs
//! captured from the workload's own stream — the segment pairs, MBBs, pages
//! and frames those requests touch. Work counts come from `QueryProfile`,
//! `BatchOutcome::merged_profile`, `StatsReport` and `DurableStats`.
//!
//! Substrate, executor, WAL and ingest probes run on the first
//! [`layer_objects`] objects of the workload's dataset (the *layer set*): big
//! enough for a tree of height 3, small enough that five extra index
//! builds fit a run. Counts, the search-time model and the onion run on the
//! workload's own database at full size.

use std::sync::Arc;
use std::time::Instant;

use mst_exec::{BatchExecutor, BatchQuery, IngestOp, ShardedDatabase};
use mst_index::checksum;
use mst_index::mindist::{segment_rect_mindist, trajectory_mbb_mindist};
use mst_index::{
    BufferPool, MetricTree, Node, PageId, PageStore, Rtree3D, StrTree, TbTree, TrajectoryIndex,
    TrajectoryIndexWrite,
};
use mst_prng::Rng;
use mst_search::dissim::{dissim_between, piece};
use mst_search::{
    scan_kmst, Integration, KmstSubstrate, MstConfig, NoShare, NoopSink, Query, QueryProfile,
};
use mst_serve::protocol::{encode_frame_v2, split_frame_v2};
use mst_serve::{Request, Response, ServeClient, Server};
use mst_trajectory::kinematics::DistanceTrinomial;
use mst_trajectory::{Mbb, Segment, TrajectoryId};
use mst_wal::record::{decode_frame, encode_frame};
use mst_wal::{DurableDatabase, FileStore, SimStore, WalConfig, WalRecord, WalWriter};

use crate::inputs::{
    build_into, build_rtree, ingest_pool, store_of, stratified_queries, with_ids, Fleet, QuerySpec,
    K,
};
use crate::micro::{self, UnitCost};
use crate::stats;
use crate::trace::{onion_self, Clock, Span};
use crate::workloads::batch_long::batch_of;
use crate::workloads::serve_ingest::{self, IngestReport, IngestSize};
use crate::workloads::serve_read::{kmst_request, server_config};
use crate::workloads::{Ctx, Outcome, TraceInputs};

/// Every n-th request of a stream is replayed at the layer boundaries.
const SAMPLE_STRIDE: usize = 16;
/// At most this many requests are replayed.
const SAMPLE_CAP: usize = 192;

fn layer_objects(smoke: bool) -> usize {
    if smoke {
        12
    } else {
        40
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Median of a closure's per-call wall time in milliseconds over `inputs`,
/// after one untimed lap that fills caches and lazy structures.
fn median_ms<T>(inputs: &[T], mut call: impl FnMut(&T)) -> f64 {
    inputs.iter().for_each(&mut call);
    let mut times: Vec<f64> = inputs
        .iter()
        .map(|input| {
            let start = Instant::now();
            call(input);
            ms_since(start)
        })
        .collect();
    stats::median(&mut times)
}

/// The inputs the micro-kernels run on, captured from the workload.
struct Captured {
    /// Co-temporal (query segment, data segment) pairs.
    pairs: Vec<(Segment, Segment)>,
    /// (request, node MBB) pairs along each request's descent.
    boxes: Vec<(usize, Mbb)>,
    /// Decoded nodes of the workload's index, and their sealed pages.
    nodes: Vec<Node>,
    pages: Vec<Vec<u8>>,
    /// Mean entries of an internal node (MINDIST evaluations per visit).
    internal_fanout: f64,
}

fn capture(inputs: &TraceInputs, sample: &[QuerySpec]) -> Result<Captured, String> {
    // Segment pairs: each sampled query's segments against the segments of
    // the next object over the same instants (GSTD samples are co-timed).
    let mut pairs = Vec::new();
    for (i, q) in sample.iter().enumerate() {
        let other = &inputs.fleet[(i * 7 + 1) % inputs.fleet.len()].1;
        for qs in q.query.segments().take(8) {
            let Ok(at) = other.segment_index_at(qs.time().midpoint()) else {
                continue;
            };
            // A query's first and last segments are clipped mid-step; the
            // data segment is cut to the same instants.
            if let Some(ds) = other.segment(at).clip(&qs.time()) {
                if ds.time() == qs.time() {
                    pairs.push((qs, ds));
                }
            }
        }
    }
    // Nodes: a breadth-first walk of the first shard's tree. Boxes: for
    // each sampled request, every entry of the internal nodes a descent
    // towards its two nearest children meets — the MBBs a search computes
    // MINDIST for, most of them off to the side in time and cheap.
    type Walk = (Vec<Node>, Vec<(usize, Mbb)>);
    let walk = |index: &mut Rtree3D| -> Result<Walk, String> {
        let read = |index: &mut Rtree3D, page: PageId| {
            index.read_node(page).map_err(|e| format!("walk: {e}"))
        };
        let root: Vec<PageId> = index.root().into_iter().collect();
        let mut nodes = Vec::new();
        let mut frontier = root.clone();
        while let Some(page) = frontier.pop() {
            if nodes.len() >= 256 {
                break;
            }
            let node = read(index, page)?;
            if let Node::Internal { entries, .. } = &node {
                frontier.splice(0..0, entries.iter().map(|e| e.child));
            }
            nodes.push(node);
        }
        let mut boxes = Vec::new();
        for (i, q) in sample.iter().enumerate() {
            let mut frontier = root.clone();
            for _ in 0..8 {
                let Some(page) = frontier.pop() else { break };
                let Node::Internal { entries, .. } = read(index, page)? else {
                    continue;
                };
                boxes.extend(entries.iter().map(|e| (i, e.mbb)));
                let mut near: Vec<(f64, PageId)> = entries
                    .iter()
                    .filter_map(|e| {
                        trajectory_mbb_mindist(&q.query, &e.mbb, &q.period).map(|d| (d, e.child))
                    })
                    .collect();
                near.sort_by(|a, b| a.0.total_cmp(&b.0));
                frontier.splice(0..0, near.iter().take(2).map(|(_, child)| *child));
            }
        }
        Ok((nodes, boxes))
    };
    let (nodes, boxes) = inputs.db.shards()[0]
        .index()
        .with(walk)
        .map_err(|e| format!("index lock: {e}"))??;
    let internal: Vec<usize> = nodes
        .iter()
        .filter_map(|n| match n {
            Node::Internal { entries, .. } => Some(entries.len()),
            Node::Leaf { .. } => None,
        })
        .collect();
    let pages = nodes
        .iter()
        .map(|node| {
            let mut page = node.encode();
            checksum::embed(&mut page);
            page
        })
        .collect();
    if pairs.is_empty() || boxes.is_empty() || internal.is_empty() {
        return Err("the workload's stream gave the micro-kernels nothing to run on".into());
    }
    Ok(Captured {
        pairs,
        boxes,
        internal_fanout: internal.iter().sum::<usize>() as f64 / internal.len() as f64,
        nodes,
        pages,
    })
}

/// Unit costs the search-time model multiplies counts with.
struct UnitCosts {
    buffer_hit: UnitCost,
    buffer_miss: UnitCost,
    decode: UnitCost,
    mindist: UnitCost,
    piece_trapezoid: UnitCost,
    piece_exact: UnitCost,
}

fn kernel_metrics(
    captured: &Captured,
    sample: &[QuerySpec],
    inputs: &TraceInputs,
    out: &mut Outcome,
) -> UnitCosts {
    let m = &mut out.metrics;
    // trajectory: the kinematics kernels.
    let trinomials: Vec<(DistanceTrinomial, f64, f64)> = captured
        .pairs
        .iter()
        .filter_map(|(a, b)| {
            let tri = DistanceTrinomial::between(a, b).ok()?;
            Some((tri, a.time().start(), a.time().end()))
        })
        .collect();
    m.insert(
        "trajectory.trinomial_between_ns",
        micro::over(&captured.pairs, |(a, b)| DistanceTrinomial::between(a, b)).ns,
    );
    m.insert(
        "trajectory.integral_exact_ns",
        micro::over(&trinomials, |(tri, u, v)| tri.integral_exact(*u, *v)).ns,
    );
    m.insert(
        "trajectory.integral_trapezoid_ns",
        micro::over(&trinomials, |(tri, u, v)| tri.integral_trapezoid(*u, *v)).ns,
    );
    m.insert(
        "trajectory.error_bound_ns",
        micro::over(&trinomials, |(tri, u, v)| tri.trapezoid_error_bound(*u, *v)).ns,
    );

    // index: geometry.
    let mindist = micro::over(&captured.boxes, |(i, mbb)| {
        trajectory_mbb_mindist(&sample[*i].query, mbb, &sample[*i].period)
    });
    m.insert("index.mindist_ns", mindist.ns);
    let rects: Vec<(Segment, Mbb)> = captured
        .boxes
        .iter()
        .map(|(i, mbb)| (sample[*i].query.segment(0), *mbb))
        .collect();
    m.insert(
        "index.segment_rect_mindist_ns",
        micro::over(&rects, |(seg, mbb)| segment_rect_mindist(seg, &mbb.rect())).ns,
    );

    // index: the page layer, on the workload's own pages.
    m.insert(
        "index.checksum_verify_ns_per_page",
        micro::over(&captured.pages, |page| checksum::verify(page)).ns,
    );
    let decode = micro::measure(|i| {
        let at = i % captured.pages.len();
        Node::decode(PageId(at as u32), &captured.pages[at])
    });
    m.insert("index.node_decode_ns_per_page", decode.ns);
    m.insert(
        "index.node_encode_ns_per_page",
        micro::over(&captured.nodes, Node::encode).ns,
    );
    let mut store = PageStore::new();
    let ids: Vec<PageId> = captured.pages.iter().map(|_| store.allocate()).collect();
    let mut roomy = BufferPool::new(ids.len() + 8);
    for (id, page) in ids.iter().zip(&captured.pages) {
        roomy.write(&mut store, *id, page).expect("page write");
    }
    roomy.flush(&mut store).expect("flush");
    let buffer_hit = micro::measure(|i| {
        let id = ids[i % ids.len()];
        let first = roomy.read_pinned(&mut store, id).map(|bytes| bytes[0]);
        roomy.unpin(id).expect("unpin");
        first
    });
    m.insert("index.buffer_hit_ns", buffer_hit.ns);
    // Eight frames in front of a cyclic walk over hundreds of pages: the
    // LRU never holds the page asked for.
    let mut tight = BufferPool::new(8);
    let buffer_miss = micro::measure(|i| {
        let id = ids[i % ids.len()];
        let first = tight.read_pinned(&mut store, id).map(|bytes| bytes[0]);
        tight.unpin(id).expect("unpin");
        first
    });
    m.insert("index.buffer_miss_ns", buffer_miss.ns);

    // search: one co-temporal piece, one trajectory pair.
    let piece_trapezoid = micro::over(&captured.pairs, |(a, b)| {
        piece(a, b, Integration::Trapezoid)
    });
    let piece_exact = micro::over(&captured.pairs, |(a, b)| piece(a, b, Integration::Exact));
    m.insert("search.piece_ns", piece_trapezoid.ns);
    let couples: Vec<(usize, usize)> = (0..sample.len())
        .map(|i| (i, (i * 7 + 1) % inputs.fleet.len()))
        .collect();
    m.insert(
        "search.dissim_between_us",
        micro::over(&couples, |(q, other)| {
            dissim_between(
                &sample[*q].query,
                &inputs.fleet[*other].1,
                &sample[*q].period,
                Integration::Trapezoid,
            )
        })
        .ns / 1e3,
    );
    let costs = UnitCosts {
        buffer_hit,
        buffer_miss,
        decode,
        mindist,
        piece_trapezoid,
        piece_exact,
    };
    let noisiest = [
        ("buffer hit", &costs.buffer_hit),
        ("buffer miss", &costs.buffer_miss),
        ("decode", &costs.decode),
        ("MINDIST", &costs.mindist),
        ("piece", &costs.piece_trapezoid),
    ]
    .into_iter()
    .max_by(|a, b| (a.1.mad_ns / a.1.ns).total_cmp(&(b.1.mad_ns / b.1.ns)))
    .expect("five kernels");
    out.notes.push(format!(
        "model kernels: {} samples each; noisiest is {} at {:.1} ns +- {:.1} % (MAD), {} calls a batch",
        micro::SAMPLES,
        noisiest.0,
        noisiest.1.ns,
        noisiest.1.mad_ns / noisiest.1.ns * 100.0,
        noisiest.1.batch,
    ));
    costs
}

/// What the search boundary did for the sampled requests, on the
/// workload's own database: exact counts, and how much of the measured
/// time the count × unit-cost model explains.
fn search_boundary(
    inputs: &TraceInputs,
    sample: &[QuerySpec],
    captured: &Captured,
    costs: &UnitCosts,
    out: &mut Outcome,
) -> Result<(), String> {
    let specs: Vec<BatchQuery> = batch_of(sample);
    let mut total = QueryProfile::new();
    // Model terms: page fetches, decodes, MINDISTs, piece evaluations.
    let mut terms_ns = [0.0f64; 4];
    let mut measured_ns = 0.0;
    // Lap 0 warms buffers the workload may have left cold, lap 1 counts
    // (a profile sink slows the search it observes), lap 2 is timed.
    for lap in 0..3 {
        for spec in &specs {
            let BatchQuery::Kmst(spec) = spec else {
                unreachable!("batch_of builds k-MST queries");
            };
            for shard in inputs.db.shards() {
                if lap == 1 {
                    let mut profile = QueryProfile::new();
                    shard
                        .run_kmst(spec, &NoShare, &mut profile)
                        .map_err(|e| format!("search boundary: {e}"))?;
                    let internal_visits: u64 = profile.node_accesses.iter().skip(1).sum();
                    terms_ns[0] += profile.buffer_hits as f64 * costs.buffer_hit.ns
                        + profile.buffer_misses as f64 * costs.buffer_miss.ns;
                    terms_ns[1] += profile.nodes_accessed() as f64 * costs.decode.ns;
                    terms_ns[2] +=
                        internal_visits as f64 * captured.internal_fanout * costs.mindist.ns;
                    terms_ns[3] += profile.trapezoid_piece_evals as f64 * costs.piece_trapezoid.ns
                        + profile.exact_piece_evals as f64 * costs.piece_exact.ns;
                    total.merge(&profile);
                } else {
                    let start = Instant::now();
                    shard
                        .run_kmst(spec, &NoShare, &mut NoopSink)
                        .map_err(|e| format!("search boundary: {e}"))?;
                    if lap == 2 {
                        measured_ns += start.elapsed().as_nanos() as f64;
                    }
                }
            }
        }
    }
    let modelled_ns: f64 = terms_ns.iter().sum();
    let n = sample.len() as f64;
    let pages: usize = crate::workloads::sharded_pages(&inputs.db);
    let fetches = (total.buffer_hits + total.buffer_misses).max(1) as f64;
    let m = &mut out.metrics;
    m.insert("index.buffer_hit_ratio", total.buffer_hits as f64 / fetches);
    m.insert(
        "index.bytes_decoded_per_query",
        total.bytes_decoded as f64 / n,
    );
    m.insert(
        "index.page_misses_per_query",
        total.buffer_misses as f64 / n,
    );
    m.insert(
        "index.pruning_power",
        1.0 - total.nodes_accessed() as f64 / n / pages.max(1) as f64,
    );
    m.insert("search.nodes_per_query", total.nodes_accessed() as f64 / n);
    m.insert(
        "search.piece_evals_per_query",
        total.piece_evals() as f64 / n,
    );
    m.insert(
        "search.ldd_evals_per_query",
        total.pruning.ldd_evals as f64 / n,
    );
    m.insert("search.heap_pushes_per_query", total.heap_pushes as f64 / n);
    m.insert(
        "search.candidates_refined_per_query",
        total.candidates.refined as f64 / n,
    );
    m.insert(
        "search.exact_recomputations_per_query",
        total.exact_recomputations as f64 / n,
    );
    // A share above 1 means the unit costs, measured in isolation, overstate
    // what the same work costs inside a query.
    let share = modelled_ns / measured_ns.max(1.0);
    m.insert("trace.search_modelled_share", share);
    m.insert("trace.search_unattributed_share", (1.0 - share).max(0.0));
    out.notes.push(format!(
        "search boundary: {} requests replayed per shard, {:.1} ms; model explains {:.1} % \
         (page fetch {:.1} %, decode {:.1} %, MINDIST {:.1} %, pieces {:.1} %)",
        sample.len(),
        measured_ns / 1e6,
        share * 100.0,
        terms_ns[0] / measured_ns * 100.0,
        terms_ns[1] / measured_ns * 100.0,
        terms_ns[2] / measured_ns * 100.0,
        terms_ns[3] / measured_ns * 100.0,
    ));
    Ok(())
}

/// The onion: each sampled request replayed at serve ⊃ exec ⊃ search on an
/// otherwise idle stack over the workload's database. The search child is
/// the slowest shard's search — the two shard jobs of a request run on the
/// executor's two workers side by side.
fn onion(
    inputs: &TraceInputs,
    sample: &[QuerySpec],
    clock: &Clock,
    out: &mut Outcome,
) -> Result<(), String> {
    let server = Server::start(server_config(), Arc::clone(&inputs.db))
        .map_err(|e| format!("onion server: {e}"))?;
    let mut client = ServeClient::connect_with_depth(server.local_addr(), 1)
        .map_err(|e| format!("onion client: {e}"))?;
    let exec = BatchExecutor::new()
        .workers(2)
        .submit_handle(Arc::clone(&inputs.db))
        .map_err(|e| format!("onion executor: {e}"))?;
    let requests: Vec<Request> = sample.iter().map(kmst_request).collect();
    let specs = batch_of(sample);

    let (mut serve_self, mut exec_self) = (Vec::new(), Vec::new());
    let mut negative = 0usize;
    let mut worst_gap = 0.0f64;
    for (i, (request, spec)) in requests.iter().zip(specs).enumerate() {
        let BatchQuery::Kmst(kmst) = &spec else {
            unreachable!("batch_of builds k-MST queries");
        };
        // Every boundary is crossed twice and the second crossing timed:
        // all three then find the request's pages where the one before
        // left them, in the buffer.
        let (mut serve_start, mut serve_end) = (0, 0);
        for _ in 0..2 {
            serve_start = clock.now_ns();
            let answered = client.request(request).map_err(|e| format!("onion: {e}"))?;
            serve_end = clock.now_ns();
            if !matches!(
                answered,
                Response::Kmst {
                    degraded: false,
                    ..
                }
            ) {
                return Err("the onion's serve boundary refused a request".into());
            }
        }
        let (mut exec_start, mut exec_end) = (0, 0);
        for _ in 0..2 {
            exec_start = clock.now_ns();
            exec.submit(spec.clone())
                .map_err(|e| format!("onion submit: {e}"))?
                .wait()
                .map_err(|e| format!("onion wait: {e}"))?;
            exec_end = clock.now_ns();
        }
        let mut search = 0u64;
        for shard in inputs.db.shards() {
            for lap in 0..2 {
                let start = Instant::now();
                shard
                    .run_kmst(kmst, &NoShare, &mut NoopSink)
                    .map_err(|e| format!("onion search: {e}"))?;
                if lap == 1 {
                    search = search.max(start.elapsed().as_nanos() as u64);
                }
            }
        }
        let durations = [serve_end - serve_start, exec_end - exec_start, search];
        let own = onion_self(&durations);
        negative += own.iter().filter(|ns| **ns < 0).count();
        let sum: i64 = own.iter().sum();
        worst_gap = worst_gap.max((sum as f64 - durations[0] as f64).abs() / durations[0] as f64);
        serve_self.push(own[0] as f64 / 1e3);
        exec_self.push(own[1] as f64 / 1e3);
        // The replays are sequential; the spans share the request id and
        // name their logical parent.
        let first = out.spans.len() as u32;
        for (depth, (name, start_ns, end_ns)) in [
            ("onion.serve", serve_start, serve_end),
            ("onion.exec", exec_start, exec_end),
            ("onion.search", exec_end, exec_end + search),
        ]
        .into_iter()
        .enumerate()
        {
            out.spans.push(Span {
                name,
                request_id: i as u64,
                parent: (depth > 0).then(|| first + depth as u32 - 1),
                start_ns,
                end_ns,
            });
        }
    }
    exec.shutdown();
    drop(client);
    server.shutdown();
    out.metrics
        .insert("serve.self_us_per_query", stats::median(&mut serve_self));
    out.metrics
        .insert("exec.self_us_per_query", stats::median(&mut exec_self));
    out.notes.push(format!(
        "onion: {} requests at serve > exec > search; self times sum to the outer span within \
         {:.2e}; {negative} negative self times",
        sample.len(),
        worst_gap,
    ));
    Ok(())
}

/// Index builds and one query per substrate, on the layer set.
fn substrate_metrics(layer: &Fleet, seed: u64, smoke: bool, out: &mut Outcome) -> Rtree3D {
    let entries = layer.iter().map(|(_, t)| t.num_segments()).sum::<usize>() as f64;
    let start = Instant::now();
    let mut rtree = build_rtree(layer);
    let rtree_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut tbtree = build_into(TbTree::new(), layer);
    let tbtree_s = start.elapsed().as_secs_f64();
    let mut strtree = build_into(StrTree::new(), layer);
    let mut metric = build_into(MetricTree::new(), layer);
    out.metrics.insert("index.rtree_build_s", rtree_s);
    out.metrics.insert("index.tbtree_build_s", tbtree_s);
    out.metrics
        .insert("index.rtree_insert_us", rtree_s * 1e6 / entries);

    let store = store_of(layer);
    let config = MstConfig::k(K);
    let scale = if smoke { 1 } else { 2 };
    let mut rng = Rng::seed_from(seed ^ 0x1A);
    let mut stream =
        |length: f64, per_object: usize| stratified_queries(layer, &[length], per_object, &mut rng);
    let (len1, len25, len100) = (stream(0.01, 2 * scale), stream(0.25, scale), stream(1.0, 1));
    let few = &len25[..len25.len() / 2];
    let fewer = &len100[..len100.len() / 2];
    fn run<I: KmstSubstrate>(
        index: &mut I,
        store: &mst_search::TrajectoryStore,
        config: &MstConfig,
        queries: &[QuerySpec],
    ) -> f64 {
        median_ms(queries, |q| {
            index
                .kmst_search(store, &q.query, &q.period, config, &NoShare, &mut NoopSink)
                .expect("substrate query");
        })
    }
    let m = &mut out.metrics;
    m.insert(
        "search.rtree_query_ms_len1",
        run(&mut rtree, &store, &config, &len1),
    );
    m.insert(
        "search.rtree_query_ms_len25",
        run(&mut rtree, &store, &config, &len25),
    );
    m.insert(
        "search.rtree_query_ms_len100",
        run(&mut rtree, &store, &config, &len100),
    );
    m.insert(
        "search.tbtree_query_ms_len1",
        run(&mut tbtree, &store, &config, &len1),
    );
    m.insert(
        "search.tbtree_query_ms_len25",
        run(&mut tbtree, &store, &config, &len25),
    );
    m.insert(
        "search.tbtree_query_ms_len100",
        run(&mut tbtree, &store, &config, &len100),
    );
    m.insert(
        "search.strtree_query_ms_len25",
        run(&mut strtree, &store, &config, &len25),
    );
    // The metric tree is an order of magnitude slower: half the queries.
    m.insert(
        "search.metric_query_ms_len25",
        run(&mut metric, &store, &config, few),
    );
    m.insert(
        "search.metric_query_ms_len100",
        run(&mut metric, &store, &config, fewer),
    );
    m.insert(
        "search.scan_query_ms_len25",
        median_ms(few, |q| {
            scan_kmst(&store, &q.query, &q.period, K, Integration::Exact).expect("scan");
        }),
    );

    // `read_node` on a resident page: the whole layer index is buffered.
    rtree
        .set_buffer_capacity(Some(rtree.num_pages()))
        .expect("buffer capacity");
    let resident: Vec<PageId> = (0..rtree.num_pages() as u32).map(PageId).collect();
    for page in &resident {
        let _ = rtree.read_node(*page);
    }
    m.insert(
        "index.read_node_ns",
        micro::over(&resident, |page| rtree.read_node(*page)).ns,
    );
    rtree
}

/// The executor on the layer set: scaling over shards × workers, what a
/// batch costs over direct calls, and the submit → wait floor.
fn exec_metrics(layer: &Fleet, mut direct: Rtree3D, seed: u64, smoke: bool, out: &mut Outcome) {
    let per_object = if smoke { 10 } else { 25 };
    let stream = stratified_queries(
        layer,
        &crate::workloads::engine_short::LENGTHS,
        per_object / 3 + 1,
        &mut Rng::seed_from(seed ^ 0xEC),
    );
    let store = store_of(layer);
    let config = MstConfig::k(K);
    let n = stream.len() as f64;
    let direct_s = {
        let mut laps: Vec<f64> = (0..3)
            .map(|_| {
                let start = Instant::now();
                for q in &stream {
                    direct
                        .kmst_search(
                            &store,
                            &q.query,
                            &q.period,
                            &config,
                            &NoShare,
                            &mut NoopSink,
                        )
                        .expect("direct query");
                }
                start.elapsed().as_secs_f64()
            })
            .collect();
        stats::median(&mut laps)
    };
    let mut prunes = 0.0;
    let mut one_by_one = 0.0;
    for (shards, workers, name) in [
        (1, 1, "exec.qps_1s1w"),
        (1, 2, "exec.qps_1s2w"),
        (2, 1, "exec.qps_2s1w"),
        (2, 2, "exec.qps_2s2w"),
    ] {
        let db = ShardedDatabase::with_rtree(shards, layer.clone()).expect("layer shards");
        db.set_buffer_capacity(Some(crate::workloads::sharded_pages(&db)))
            .expect("buffer capacity");
        let executor = BatchExecutor::new().workers(workers);
        let batch = batch_of(&stream);
        let mut laps = Vec::new();
        for _ in 0..3 {
            let batch = batch.clone();
            let start = Instant::now();
            let outcome = executor.run(&db, batch);
            laps.push(start.elapsed().as_secs_f64());
            prunes = outcome.merged_profile().pruning.shared_kth_prunes as f64 / n;
        }
        let lap = stats::median(&mut laps);
        out.metrics.insert(name, n / lap);
        if (shards, workers) == (1, 1) {
            one_by_one = lap;
        }
    }
    out.metrics.insert(
        "exec.batch_overhead_us_per_query",
        (one_by_one - direct_s) * 1e6 / n,
    );
    out.metrics
        .insert("exec.shared_kth_prunes_per_query", prunes);

    // Submit → wait on a query that touches nothing: an empty window.
    let db = Arc::new(ShardedDatabase::with_rtree(1, layer.clone()).expect("layer shard"));
    let handle = BatchExecutor::new()
        .workers(1)
        .submit_handle(db)
        .expect("submit handle");
    let nowhere = Mbb::new(-9.0, -9.0, -9.0, -8.0, -8.0, -8.0);
    let wait = micro::measure(|_| {
        handle
            .submit(BatchQuery::range(Query::range(&nowhere)))
            .expect("submit")
            .wait()
            .expect("wait")
            .answer
            .len()
    });
    handle.shutdown();
    out.metrics.insert("exec.submit_wait_us", wait.ns / 1e3);

    // Entries out of the R-tree, spread over an object's lifetime: `delete`
    // finds each by walking the tree.
    let (victim, trajectory) = layer.last().expect("the layer set is not empty");
    let entries = trajectory.num_segments().min(16);
    let stride = trajectory.num_segments() / entries;
    let start = Instant::now();
    for i in 0..entries {
        direct
            .delete_entry(*victim, (i * stride) as u32)
            .expect("the R-tree deletes entries it holds");
    }
    out.metrics.insert(
        "index.rtree_delete_us",
        start.elapsed().as_secs_f64() * 1e6 / entries as f64,
    );
}

/// The serving layer without an engine behind it: codec kernels, the
/// round-trip floor, and the answer cache hit against miss.
fn serve_metrics(
    inputs: &TraceInputs,
    sample: &[QuerySpec],
    out: &mut Outcome,
) -> Result<(), String> {
    let requests: Vec<Request> = sample.iter().map(kmst_request).collect();
    let payloads: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
    let responses: Vec<Response> = (0..sample.len())
        .map(|i| Response::Kmst {
            degraded: false,
            matches: (0..K as u64)
                .map(|r| mst_search::MstMatch {
                    traj: TrajectoryId(i as u64 + r),
                    dissim: 0.125 * (i as u64 + r) as f64,
                })
                .collect(),
        })
        .collect();
    let response_payloads: Vec<Vec<u8>> = responses.iter().map(Response::encode).collect();
    let frames: Vec<Vec<u8>> = payloads
        .iter()
        .enumerate()
        .map(|(i, payload)| {
            let mut frame = Vec::new();
            encode_frame_v2(&mut frame, i as u64 + 1, payload).expect("frame");
            frame
        })
        .collect();
    let m = &mut out.metrics;
    m.insert(
        "serve.request_encode_ns",
        micro::over(&requests, Request::encode).ns,
    );
    m.insert(
        "serve.request_decode_ns",
        micro::over(&payloads, |p| Request::decode(p)).ns,
    );
    m.insert(
        "serve.response_encode_ns",
        micro::over(&responses, Response::encode).ns,
    );
    m.insert(
        "serve.response_decode_ns",
        micro::over(&response_payloads, |p| Response::decode(p)).ns,
    );
    m.insert(
        "serve.split_frame_ns",
        micro::over(&frames, |f| {
            split_frame_v2(f).map(|s| s.map(|s| s.consumed))
        })
        .ns,
    );

    let server = Server::start(
        server_config().cache_capacity(2 * sample.len()),
        Arc::clone(&inputs.db),
    )
    .map_err(|e| format!("probe server: {e}"))?;
    let mut client = ServeClient::connect_with_depth(server.local_addr(), 1)
        .map_err(|e| format!("probe client: {e}"))?;
    // `Stats` crosses socket, codec and mux and never reaches the engine.
    let mut rtt: Vec<f64> = (0..400)
        .map(|_| {
            let start = Instant::now();
            let _ = client.stats();
            ms_since(start) * 1e3
        })
        .collect();
    m.insert("serve.rtt_floor_us", stats::median(&mut rtt));
    let lap = |client: &mut ServeClient| -> Result<f64, String> {
        let mut times = Vec::with_capacity(requests.len());
        for request in &requests {
            let start = Instant::now();
            client
                .request(request)
                .map_err(|e| format!("cache probe: {e}"))?;
            times.push(ms_since(start));
        }
        Ok(stats::median(&mut times))
    };
    let miss_ms = lap(&mut client)?;
    let hit_ms = lap(&mut client)?;
    let counters = client.stats().map_err(|e| format!("stats: {e}"))?.counters;
    m.insert("serve.cache_miss_p50_ms", miss_ms);
    m.insert("serve.cache_hit_p50_us", hit_ms * 1e3);
    m.insert(
        "serve.cache_hit_ratio",
        counters.cache_hits as f64 / (counters.cache_hits + counters.cache_misses).max(1) as f64,
    );
    m.insert(
        "serve.overload_rejections",
        counters.overload_rejections as f64,
    );
    drop(client);
    server.shutdown();
    Ok(())
}

/// The WAL from its own API: frame codec, append, fsync, durable apply,
/// checkpoint, replay and replicated apply.
fn wal_metrics(layer: &Fleet, ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let err = |what: &str, e: mst_wal::WalError| format!("wal probe ({what}): {e}");
    let lifetime = layer[0].1.end_time();
    let fresh = with_ids(ingest_pool(
        if ctx.smoke { 24 } else { 96 },
        200,
        lifetime,
        ctx.seed ^ 0xA1,
    ));
    let ops: Vec<IngestOp> = fresh
        .iter()
        .map(|(id, t)| IngestOp::Insert {
            id: TrajectoryId(2_000_000 + id.0),
            trajectory: t.clone(),
        })
        .collect();
    let records: Vec<WalRecord> = ops.iter().map(WalRecord::from_op).collect();
    let framed: Vec<Vec<u8>> = records
        .iter()
        .enumerate()
        .map(|(i, r)| encode_frame(i as u64 + 1, r))
        .collect();
    let m = &mut out.metrics;
    m.insert(
        "wal.frame_encode_ns",
        micro::measure(|i| encode_frame(i as u64 + 1, &records[i % records.len()])).ns,
    );
    m.insert(
        "wal.frame_decode_ns",
        micro::over(&framed, |frame| {
            std::mem::discriminant(&decode_frame(frame))
        })
        .ns,
    );

    // Append into memory; commit (fsync) onto the real file system.
    let mut memory = WalWriter::create(SimStore::new(), WalConfig::default(), 1)
        .map_err(|e| err("create", e))?;
    let mut appends = Vec::with_capacity(records.len());
    for record in &records {
        let start = Instant::now();
        memory.append(record).map_err(|e| err("append", e))?;
        appends.push(ms_since(start) * 1e3);
    }
    m.insert("wal.append_us", stats::median(&mut appends));
    let dir = crate::env::out_dir().join(format!("wal-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let files = FileStore::open(&dir).map_err(|e| err("open", e))?;
    let mut durable_log =
        WalWriter::create(files, WalConfig::default(), 1).map_err(|e| err("create", e))?;
    let mut commits = Vec::new();
    for record in records
        .iter()
        .cycle()
        .take(if ctx.smoke { 60 } else { 300 })
    {
        durable_log.append(record).map_err(|e| err("append", e))?;
        let start = Instant::now();
        durable_log.commit().map_err(|e| err("commit", e))?;
        commits.push(ms_since(start) * 1e3);
    }
    drop(durable_log);
    let _ = std::fs::remove_dir_all(&dir);
    stats::sort(&mut commits);
    m.insert("wal.commit_p50_us", stats::percentile(&commits, 50.0));
    m.insert("wal.commit_p99_us", stats::percentile(&commits, 99.0));

    // Durable apply with no device behind it: log + apply CPU.
    type Sim = DurableDatabase<Rtree3D, SimStore>;
    let disk = SimStore::new();
    let mut primary =
        Sim::create(disk.clone(), WalConfig::default(), 2).map_err(|e| err("create", e))?;
    let seed_ops: Vec<IngestOp> = layer
        .iter()
        .map(|(id, t)| IngestOp::Insert {
            id: *id,
            trajectory: t.clone(),
        })
        .collect();
    primary.apply(&seed_ops).map_err(|e| err("seed", e))?;
    let start = Instant::now();
    primary.checkpoint().map_err(|e| err("checkpoint", e))?;
    m.insert("wal.checkpoint_s", start.elapsed().as_secs_f64());
    let before = primary.stats();
    let first_lsn = before.applied_lsn + 1;
    let start = Instant::now();
    for op in &ops {
        primary
            .apply(std::slice::from_ref(op))
            .map_err(|e| err("apply", e))?;
    }
    m.insert(
        "wal.apply_us_per_op",
        start.elapsed().as_secs_f64() * 1e6 / ops.len() as f64,
    );
    let user_bytes: usize = fresh.iter().map(|(_, t)| 8 + 24 * t.num_points()).sum();
    m.insert(
        "wal.bytes_per_user_byte",
        (primary.stats().wal_bytes - before.wal_bytes) as f64 / user_bytes as f64,
    );

    // Ship what was logged to a second store: the replica's apply path.
    let shipped = primary
        .read_committed_frames(first_lsn, usize::MAX)
        .map_err(|e| err("read frames", e))?;
    let snapshot = {
        // A replica bootstraps from the primary's checkpoint state.
        let mut twin = Sim::create(SimStore::new(), WalConfig::default(), 2)
            .map_err(|e| err("replica create", e))?;
        twin.apply(&seed_ops).map_err(|e| err("replica seed", e))?;
        twin
    };
    let mut replica = snapshot;
    let gap = replica.applied_lsn() + 1;
    if gap != first_lsn || shipped.is_empty() {
        return Err("wal probe: the replica twin is not where the primary was".into());
    }
    let start = Instant::now();
    replica
        .apply_replicated(&shipped)
        .map_err(|e| err("replicated apply", e))?;
    m.insert(
        "wal.replica_apply_us_per_record",
        start.elapsed().as_secs_f64() * 1e6 / shipped.len() as f64,
    );

    // Replay: reopen the primary's store; everything since the checkpoint
    // is re-applied.
    drop(primary);
    disk.reopen();
    let start = Instant::now();
    let reopened = Sim::open(disk, WalConfig::default()).map_err(|e| err("replay", e))?;
    let replay_s = start.elapsed().as_secs_f64();
    let replayed = reopened.stats().replayed_records;
    if replayed != ops.len() as u64 {
        return Err(format!(
            "wal probe: replay re-applied {replayed} records, {} were logged",
            ops.len()
        ));
    }
    m.insert("wal.replay_records_per_s", replayed as f64 / replay_s);
    Ok(())
}

/// The write side of an ingest session as `wal.*` layer metrics.
pub fn ingest_metrics(report: &IngestReport, out: &mut Outcome) {
    let m = &mut out.metrics;
    m.insert("wal.write_p50_ms", report.write_p50_ms);
    m.insert("wal.write_p99_ms", report.write_p99_ms);
    m.insert("wal.writes_per_s", report.writes_per_s);
    m.insert("wal.recovery_s", report.recovery_s);
    m.insert("wal.appends_per_fsync", report.appends_per_fsync);
    // The ingest session records no per-request spans: tracing it costs
    // nothing by construction.
    m.entry("trace.overhead_share").or_insert(0.0);
}

/// Everything a traced run adds to the workload's own outcome.
pub fn traced_extras(ctx: &Ctx, inputs: &TraceInputs, out: &mut Outcome) -> Result<(), String> {
    let clock = Clock::start();
    let sample: Vec<QuerySpec> = inputs
        .queries
        .iter()
        .step_by(SAMPLE_STRIDE)
        .take(SAMPLE_CAP)
        .cloned()
        .collect();
    let captured = capture(inputs, &sample)?;
    let costs = kernel_metrics(&captured, &sample, inputs, out);
    search_boundary(inputs, &sample, &captured, &costs, out)?;
    onion(inputs, &sample, &clock, out)?;
    serve_metrics(inputs, &sample, out)?;

    let layer: Fleet = inputs
        .fleet
        .iter()
        .take(layer_objects(ctx.smoke))
        .cloned()
        .collect();
    let rtree = substrate_metrics(&layer, ctx.seed, ctx.smoke, out);
    exec_metrics(&layer, rtree, ctx.seed, ctx.smoke, out);
    wal_metrics(&layer, ctx, out)?;
    if !out.metrics.contains_key("wal.write_p50_ms") {
        // No ingest session of the workload's own: the write side over the
        // wire, at probe size.
        let size = IngestSize {
            objects: layer.len(),
            setup_reps: 1,
            oracle_samples: 20,
            ..if ctx.smoke {
                IngestSize::smoke()
            } else {
                IngestSize::full()
            }
        };
        let seconds = if ctx.smoke { 0.6 } else { 3.0 };
        let report = serve_ingest::session(ctx, &size, seconds, None)?;
        out.attempted += report.attempted;
        out.failed += report.failed;
        ingest_metrics(&report, out);
    }
    Ok(())
}
