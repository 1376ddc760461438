// R-tree probes run once per candidate rectangle with caller-owned
// QueryScratch; the query path must stay allocation-free (enforced by
// tools/mwsj_check.py alloc-free-reach via the MWSJ_ALLOC_FREE probe
// annotations in rtree.h) and without std::function indirection
// (tools/mwsj_check.py hot-path-std-function).
#include "localjoin/rtree.h"

#include <algorithm>
#include <cmath>

namespace mwsj {

namespace {

// Sorts `ids` into STR tile order: primary slabs by center x, each slab
// ordered by center y. `group` is the number of entries per tile consumer
// (leaf or parent capacity).
void StrSort(const std::vector<Rect>& rects, std::vector<int32_t>* ids,
             int group) {
  const size_t n = ids->size();
  if (n == 0) return;
  auto center_x = [&](int32_t i) { return rects[static_cast<size_t>(i)].center().x; };
  auto center_y = [&](int32_t i) { return rects[static_cast<size_t>(i)].center().y; };

  std::sort(ids->begin(), ids->end(),
            [&](int32_t a, int32_t b) { return center_x(a) < center_x(b); });

  const size_t num_tiles = (n + static_cast<size_t>(group) - 1) /
                           static_cast<size_t>(group);
  const size_t num_slabs =
      static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(num_tiles))));
  const size_t slab_size =
      ((num_tiles + num_slabs - 1) / num_slabs) * static_cast<size_t>(group);
  for (size_t lo = 0; lo < n; lo += slab_size) {
    const size_t hi = std::min(n, lo + slab_size);
    std::sort(ids->begin() + static_cast<ptrdiff_t>(lo),
              ids->begin() + static_cast<ptrdiff_t>(hi),
              [&](int32_t a, int32_t b) { return center_y(a) < center_y(b); });
  }
}

}  // namespace

RTree::RTree(const std::vector<Rect>& rects, int leaf_capacity)
    : size_(rects.size()) {
  const size_t n = rects.size();
  if (n == 0) return;
  const int cap = std::max(2, leaf_capacity);

  entries_.resize(n);
  for (size_t i = 0; i < n; ++i) entries_[i] = static_cast<int32_t>(i);
  StrSort(rects, &entries_, cap);

  // Leaf scans read MBRs in leaf order; materialize them contiguously so
  // a probe is a linear pass with no entries_[i] -> rects[entry] chase.
  leaf_rects_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    leaf_rects_.push_back(rects[static_cast<size_t>(entries_[i])]);
  }

  // Level 0: leaves over contiguous entry groups.
  std::vector<std::vector<Node>> levels;
  levels.emplace_back();
  for (size_t lo = 0; lo < n; lo += static_cast<size_t>(cap)) {
    const size_t hi = std::min(n, lo + static_cast<size_t>(cap));
    Node leaf;
    leaf.is_leaf = true;
    leaf.child_begin = static_cast<int32_t>(lo);
    leaf.child_end = static_cast<int32_t>(hi);
    leaf.mbr = leaf_rects_[lo];
    for (size_t i = lo + 1; i < hi; ++i) {
      leaf.mbr = Rect::Union(leaf.mbr, leaf_rects_[i]);
    }
    levels.back().push_back(leaf);
  }

  // Upper levels: STR-pack the previous level's nodes. The previous level
  // is permuted into tile order first so that each parent's children are
  // contiguous.
  while (levels.back().size() > 1) {
    std::vector<Node>& prev = levels.back();
    std::vector<Rect> mbrs;
    mbrs.reserve(prev.size());
    for (const Node& nd : prev) mbrs.push_back(nd.mbr);
    std::vector<int32_t> order(prev.size());
    for (size_t i = 0; i < prev.size(); ++i) order[i] = static_cast<int32_t>(i);
    StrSort(mbrs, &order, cap);
    std::vector<Node> permuted;
    permuted.reserve(prev.size());
    for (int32_t idx : order) permuted.push_back(prev[static_cast<size_t>(idx)]);
    prev = std::move(permuted);

    std::vector<Node> parents;
    for (size_t lo = 0; lo < prev.size(); lo += static_cast<size_t>(cap)) {
      const size_t hi = std::min(prev.size(), lo + static_cast<size_t>(cap));
      Node parent;
      parent.is_leaf = false;
      parent.child_begin = static_cast<int32_t>(lo);
      parent.child_end = static_cast<int32_t>(hi);
      parent.mbr = prev[lo].mbr;
      for (size_t i = lo + 1; i < hi; ++i) {
        parent.mbr = Rect::Union(parent.mbr, prev[i].mbr);
      }
      parents.push_back(parent);
    }
    levels.push_back(std::move(parents));
  }

  // Flatten top-down; children of a level-j node live at the next level's
  // base offset.
  nodes_.clear();
  std::vector<int32_t> level_offset(levels.size(), 0);
  int32_t offset = 0;
  for (size_t j = levels.size(); j-- > 0;) {
    level_offset[j] = offset;
    offset += static_cast<int32_t>(levels[j].size());
  }
  nodes_.resize(static_cast<size_t>(offset));
  for (size_t j = levels.size(); j-- > 0;) {
    for (size_t i = 0; i < levels[j].size(); ++i) {
      Node nd = levels[j][i];
      if (!nd.is_leaf) {
        nd.child_begin += level_offset[j - 1];
        nd.child_end += level_offset[j - 1];
      }
      nodes_[static_cast<size_t>(level_offset[j]) + i] = nd;
    }
  }

  // SoA mirrors for the batch filters: one kernel call covers a node's
  // child slots (leaf entries or child-node MBRs) as a contiguous range.
  leaf_soa_.Reserve(leaf_rects_.size());
  for (const Rect& r : leaf_rects_) {
    leaf_soa_.PushBack(r.min_x(), r.min_y(), r.max_x(), r.max_y());
  }
  node_soa_.Reserve(nodes_.size());
  for (const Node& nd : nodes_) {
    node_soa_.PushBack(nd.mbr.min_x(), nd.mbr.min_y(), nd.mbr.max_x(),
                       nd.mbr.max_y());
  }
}

void RTree::Collect(const Predicate& predicate, const Rect& query,
                    QueryScratch* scratch, std::vector<int32_t>* out) const {
  if (nodes_.empty()) return;
  if (predicate.is_overlap()) {
    Query(query, /*overlap=*/true, 0.0, scratch, out);
    return;
  }
  // Mirrors WithinDistance: a negative (or NaN) d matches nothing, and a
  // d whose square is not a normal double (overflowed or underflowed)
  // takes the scalar hypot form.
  const double d = predicate.distance();
  if (!(d >= 0)) return;
  const double d_sq = d * d;
  if (std::isnormal(d_sq)) {
    Query(query, /*overlap=*/false, d_sq, scratch, out);
  } else {
    QueryByMinDistance(query, d, scratch, out);
  }
}

void RTree::Query(const Rect& probe, bool overlap, double d_sq,
                  QueryScratch* scratch, std::vector<int32_t>* out) const {
  const simd::KernelTable& kernels = simd::ActiveKernels();
  std::vector<int32_t>& stack = scratch->stack;
  std::vector<uint32_t>& matches = scratch->matches;
  stack.clear();

  // Children are batch-tested before they are pushed, so the root needs
  // its own test. The squared compare is tie-exact and consistent with
  // WithinDistance; for internal MBRs it is also conservative — a node's
  // per-axis gaps never exceed its children's, and fl() of the monotone
  // gap→dx²+dy² pipeline preserves ≤, so no matching child is pruned.
  const Node& root = nodes_[0];
  const bool root_hit = overlap
                            ? Overlaps(root.mbr, probe)
                            : MinDistanceSquared(root.mbr, probe) <= d_sq;
  if (!root_hit) return;
  // mwsj-check: allow(alloc-free-reach): scratch stack capacity reaches
  // tree depth × fanout on the first probes and is reused ever after.
  stack.push_back(0);

  while (!stack.empty()) {
    const Node& node = nodes_[static_cast<size_t>(stack.back())];
    stack.pop_back();
    const size_t base = static_cast<size_t>(node.child_begin);
    const size_t width =
        static_cast<size_t>(node.child_end - node.child_begin);
    // mwsj-check: allow(alloc-free-reach): grows to the widest node once,
    // then every probe reuses the same buffer (see QueryScratch doc).
    if (matches.size() < width) matches.resize(width);
    const simd::SoaRects& soa = node.is_leaf ? leaf_soa_ : node_soa_;
    const size_t hits =
        overlap ? kernels.overlap_filter(
                      soa.min_x.data() + base, soa.min_y.data() + base,
                      soa.max_x.data() + base, soa.max_y.data() + base,
                      width, probe.min_x(), probe.min_y(), probe.max_x(),
                      probe.max_y(), matches.data())
                : kernels.within_filter(
                      soa.min_x.data() + base, soa.min_y.data() + base,
                      soa.max_x.data() + base, soa.max_y.data() + base,
                      width, probe.min_x(), probe.min_y(), probe.max_x(),
                      probe.max_y(), d_sq, matches.data());
    if (node.is_leaf) {
      // Ascending slot order.
      for (size_t t = 0; t < hits; ++t) {
        // mwsj-check: allow(alloc-free-reach): `out` is the caller's
        // candidate buffer, cleared and reused across probes; growth
        // amortizes to zero.
        out->push_back(entries_[base + matches[t]]);
      }
    } else {
      // Push matching children ascending: pops then visit them in the
      // same descending order the filter-on-pop traversal produced.
      for (size_t t = 0; t < hits; ++t) {
        // mwsj-check: allow(alloc-free-reach): amortized scratch stack.
        stack.push_back(static_cast<int32_t>(base + matches[t]));
      }
    }
  }
}

void RTree::QueryByMinDistance(const Rect& probe, double d,
                               QueryScratch* scratch,
                               std::vector<int32_t>* out) const {
  std::vector<int32_t>& stack = scratch->stack;
  stack.clear();
  // mwsj-check: allow(alloc-free-reach): amortized scratch stack.
  stack.push_back(0);
  while (!stack.empty()) {
    const Node& node = nodes_[static_cast<size_t>(stack.back())];
    stack.pop_back();
    // MinDistance (hypot) neither overflows nor underflows, so `<= d`
    // stays exact where the squared form would read inf <= inf or compare
    // two underflowed squares.
    if (!(MinDistance(node.mbr, probe) <= d)) continue;
    if (node.is_leaf) {
      for (int32_t i = node.child_begin; i < node.child_end; ++i) {
        const Rect& r = leaf_rects_[static_cast<size_t>(i)];
        if (MinDistance(r, probe) <= d) {
          // mwsj-check: allow(alloc-free-reach): caller's reused buffer.
          out->push_back(entries_[static_cast<size_t>(i)]);
        }
      }
    } else {
      for (int32_t c = node.child_begin; c < node.child_end; ++c) {
        // mwsj-check: allow(alloc-free-reach): amortized scratch stack.
        stack.push_back(c);
      }
    }
  }
}

}  // namespace mwsj
