#ifndef QCFE_ENGINE_BTREE_H_
#define QCFE_ENGINE_BTREE_H_

/// \file btree.h
/// In-memory B+-tree over (double key -> row id) used by index scans. Keys
/// are the numeric view of the indexed column (all indexed columns in the
/// three benchmarks are numeric). Duplicates are allowed; range scans return
/// row ids in key order, which gives index scans their "sorted output"
/// property for merge joins.

#include <cstdint>
#include <memory>
#include <vector>

namespace qcfe {

/// B+-tree built by bulk load and read by range scans (Table::BuildIndex
/// builds or rebuilds an index whole; nothing updates one in place).
class BPlusTree {
 public:
  /// Maximum keys per node.
  static constexpr size_t kFanout = 64;

  BPlusTree();

  /// Bulk load from (key, row_id) pairs; sorts internally. Replaces any
  /// previous contents.
  void BulkLoad(std::vector<std::pair<double, uint32_t>> entries);

  /// Appends row ids with key in [lo, hi] (inclusive on both ends as
  /// requested) to `out`, in key order. Infinite bounds express one-sided
  /// ranges; lo == hi, both inclusive, is a point lookup.
  void RangeScan(double lo, bool lo_inclusive, double hi, bool hi_inclusive,
                 std::vector<uint32_t>* out) const;

  size_t size() const { return size_; }
  /// Height of the tree (1 = just a leaf). Exposed for tests and for the
  /// cost simulator's index-descent accounting.
  size_t height() const { return height_; }

 private:
  struct Node {
    bool is_leaf = true;
    std::vector<double> keys;
    // Internal: children.size() == keys.size() + 1.
    std::vector<std::unique_ptr<Node>> children;
    // Leaf payloads parallel to keys.
    std::vector<uint32_t> values;
    Node* next_leaf = nullptr;  // leaf chain for range scans
  };

  const Node* FindLeaf(double key) const;
  void RelinkLeaves();

  std::unique_ptr<Node> root_;
  size_t size_ = 0;
  size_t height_ = 1;
};

}  // namespace qcfe

#endif  // QCFE_ENGINE_BTREE_H_
