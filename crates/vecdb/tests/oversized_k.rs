//! `k` larger than the collection returns every row — for **any** `k`.
//! The result count is caller input (a request field, on the serving
//! path), so it must never size an allocation: `k = usize::MAX / 64`
//! used to abort the process in `BinaryHeap::with_capacity(k + 1)`, and
//! `k = usize::MAX` overflowed the `+ 1`.

use fbp_vecdb::{
    merge_partials, CollectionBuilder, Euclidean, KnnEngine, LinearScan, MultiQueryScan,
    PartitionConfig, PartitionedCollection, Precision, QueryBatch, QueryMetrics::Shared, ScanMode,
};

#[test]
fn any_oversized_k_returns_every_row_on_every_front_end() {
    const ROWS: usize = 10;
    let mut b = CollectionBuilder::new().with_f32_mirror();
    for i in 0..ROWS {
        b.push_unlabelled(&[i as f64, (i * i % 7) as f64]).unwrap();
    }
    let coll = b.build();
    let part = PartitionedCollection::build(&coll, &PartitionConfig::with_partitions(3));
    // The router's cut into three slices, each with its first row.
    let slices: Vec<_> = [(0, 3), (3, 6), (6, ROWS)]
        .into_iter()
        .map(|(start, end)| (coll.slice_rows(start, end), start as u32))
        .collect();
    let q: &[f64] = &[2.5, 1.0];
    let qs = [q];
    let all = LinearScan::with_mode(&coll, ScanMode::Batched).knn(q, ROWS, &Euclidean);
    assert_eq!(all.len(), ROWS);
    let expect = std::slice::from_ref(&all);
    for k in [ROWS + 1, usize::MAX / 64, usize::MAX] {
        let batch = QueryBatch::new(&qs, Shared(&Euclidean), k);
        let ks = [k];
        let per_query = QueryBatch::new(&qs, Shared(&Euclidean), 0).with_ks(&ks);
        for mode in [ScanMode::Scalar, ScanMode::Batched, ScanMode::Parallel] {
            for precision in [Precision::F64, Precision::F32Rescore] {
                let ctx = format!("k={k} {mode:?} {precision:?}");
                let linear = LinearScan::with_mode(&coll, mode).with_precision(precision);
                assert_eq!(linear.knn(q, k, &Euclidean), all, "linear {ctx}");
                let flat = MultiQueryScan::with_mode(&coll, mode).with_precision(precision);
                assert_eq!(flat.knn(&batch), expect, "flat {ctx}");
                assert_eq!(flat.knn(&per_query), expect, "flat with_ks {ctx}");
                let pruned = MultiQueryScan::with_mode(&part, mode).with_precision(precision);
                assert_eq!(pruned.knn(&batch), expect, "partitioned {ctx}");
                let parts: Vec<_> = (slices.iter())
                    .map(|(slice, offset)| {
                        let scan = MultiQueryScan::with_mode(slice, mode).with_precision(precision);
                        scan.knn_keyed(&batch).remove(0).offset(*offset)
                    })
                    .collect();
                let merged = merge_partials(&parts, k, &Euclidean);
                assert_eq!(merged, all, "sliced {ctx}");
            }
        }
    }
}
