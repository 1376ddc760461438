#ifndef MWSJ_LOCALJOIN_RTREE_H_
#define MWSJ_LOCALJOIN_RTREE_H_

#include <cstdint>
#include <vector>

#include "common/effects.h"
#include "geometry/rect.h"
#include "query/predicate.h"
#include "simd/simd.h"

namespace mwsj {

/// A static R-tree over a set of rectangles, bulk-loaded with the
/// Sort-Tile-Recursive (STR) algorithm. Reducers build one per relation to
/// answer the Ov and Ra(d) probes of their local joins; entries are
/// identified by their index in the input vector.
///
/// The tree is immutable after construction — reducers build, probe, and
/// discard, so no insert/delete machinery is carried. Leaf entry MBRs are
/// stored contiguously in leaf order, so a leaf scan is a linear pass over
/// one rectangle array instead of an index chase per entry.
class RTree {
 public:
  /// Reusable traversal state for probe calls. Callers on a hot path own
  /// one scratch and thread it through every probe, so the steady state
  /// performs no heap allocation per query; one scratch may be reused
  /// across probes and across trees, but not concurrently from several
  /// threads.
  struct QueryScratch {
    std::vector<int32_t> stack;
    // Batch-filter output buffer (child slots of one node); sized to the
    // widest node on first use, no allocation afterwards.
    std::vector<uint32_t> matches;
  };

  /// Builds the tree over `rects` (indices into this vector are the probe
  /// results). An empty input yields an empty tree. The input vector is
  /// only read during construction.
  explicit RTree(const std::vector<Rect>& rects, int leaf_capacity = 16);

  /// Appends to `*out` the index of every rectangle r of the input with
  /// `predicate.Evaluate(r, query)`, in tree order. This is the one
  /// spatial probe: every reducer's candidate search goes through it.
  /// MWSJ_ALLOC_FREE: runs once per candidate in the multiway probe loop;
  /// steady-state traversal uses only the caller's scratch and output
  /// buffers.
  MWSJ_ALLOC_FREE void Collect(const Predicate& predicate, const Rect& query,
                               QueryScratch* scratch,
                               std::vector<int32_t>* out) const;

  size_t size() const { return size_; }

 private:
  struct Node {
    Rect mbr;
    // Children are nodes_[child_begin, child_end) for internal nodes, or
    // leaf slots [child_begin, child_end) — indexing both entries_ and
    // leaf_rects_ — for leaves.
    int32_t child_begin = 0;
    int32_t child_end = 0;
    bool is_leaf = true;
  };

  /// Batch-filter traversal: overlap, or squared distance <= d_sq.
  void Query(const Rect& probe, bool overlap, double d_sq,
             QueryScratch* scratch, std::vector<int32_t>* out) const;

  /// Scalar traversal for probes whose d·d is not a normal double: it
  /// overflows (kNN's unbounded +inf pass) or underflows (d below
  /// ~1.5e-154, d = 0 included). The batch kernels compare squared
  /// distances, which would read inf <= inf, or two underflowed squares,
  /// there.
  void QueryByMinDistance(const Rect& probe, double d, QueryScratch* scratch,
                          std::vector<int32_t>* out) const;

  size_t size_ = 0;
  std::vector<int32_t> entries_;  // Leaf entry indices, grouped per leaf.
  std::vector<Rect> leaf_rects_;  // entries_[i]'s MBR, index-aligned.
  std::vector<Node> nodes_;       // nodes_[0] is the root (when non-empty).
  // SoA mirrors of leaf_rects_ and the node MBRs for the batch filters:
  // a probe tests all child slots of a node with one kernel call.
  simd::SoaRects leaf_soa_;
  simd::SoaRects node_soa_;
};

}  // namespace mwsj

#endif  // MWSJ_LOCALJOIN_RTREE_H_
