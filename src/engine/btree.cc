#include "engine/btree.h"

#include <algorithm>
#include <cmath>

namespace qcfe {

BPlusTree::BPlusTree() : root_(std::make_unique<Node>()) {}

void BPlusTree::BulkLoad(std::vector<std::pair<double, uint32_t>> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_ = entries.size();

  // Build the leaf level: chunks of at most kFanout entries.
  std::vector<std::unique_ptr<Node>> level;
  for (size_t i = 0; i < entries.size(); i += kFanout) {
    auto leaf = std::make_unique<Node>();
    leaf->is_leaf = true;
    size_t end = std::min(i + kFanout, entries.size());
    for (size_t j = i; j < end; ++j) {
      leaf->keys.push_back(entries[j].first);
      leaf->values.push_back(entries[j].second);
    }
    level.push_back(std::move(leaf));
  }
  if (level.empty()) level.push_back(std::make_unique<Node>());

  height_ = 1;
  // Build internal levels until a single root remains.
  while (level.size() > 1) {
    std::vector<std::unique_ptr<Node>> parents;
    for (size_t i = 0; i < level.size(); i += kFanout) {
      auto parent = std::make_unique<Node>();
      parent->is_leaf = false;
      size_t end = std::min(i + kFanout, level.size());
      for (size_t j = i; j < end; ++j) {
        if (j > i) {
          // Separator = smallest key reachable from child j.
          const Node* n = level[j].get();
          while (!n->is_leaf) n = n->children.front().get();
          parent->keys.push_back(n->keys.empty() ? 0.0 : n->keys.front());
        }
        parent->children.push_back(std::move(level[j]));
      }
      parents.push_back(std::move(parent));
    }
    level = std::move(parents);
    ++height_;
  }
  root_ = std::move(level.front());
  RelinkLeaves();
}

void BPlusTree::RelinkLeaves() {
  // Walk the tree left-to-right chaining leaves.
  std::vector<Node*> stack{root_.get()};
  Node* prev = nullptr;
  // Depth-first, children in order, collect leaves.
  std::vector<Node*> order;
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    if (n->is_leaf) {
      order.push_back(n);
    } else {
      for (size_t i = n->children.size(); i > 0; --i) {
        stack.push_back(n->children[i - 1].get());
      }
    }
  }
  for (Node* leaf : order) {
    if (prev != nullptr) prev->next_leaf = leaf;
    prev = leaf;
  }
  if (prev != nullptr) prev->next_leaf = nullptr;
}

const BPlusTree::Node* BPlusTree::FindLeaf(double key) const {
  // Descend with lower_bound so a run of duplicate keys that spans node
  // boundaries is entered at its leftmost leaf (separators equal to `key`
  // may have equal keys in the child to their left).
  const Node* n = root_.get();
  while (!n->is_leaf) {
    size_t idx = static_cast<size_t>(
        std::lower_bound(n->keys.begin(), n->keys.end(), key) -
        n->keys.begin());
    n = n->children[idx].get();
  }
  return n;
}

void BPlusTree::RangeScan(double lo, bool lo_inclusive, double hi,
                          bool hi_inclusive,
                          std::vector<uint32_t>* out) const {
  if (size_ == 0) return;
  const Node* leaf =
      std::isinf(lo) && lo < 0 ? FindLeaf(-HUGE_VAL) : FindLeaf(lo);
  while (leaf != nullptr) {
    for (size_t i = 0; i < leaf->keys.size(); ++i) {
      double k = leaf->keys[i];
      bool above_lo = lo_inclusive ? k >= lo : k > lo;
      bool below_hi = hi_inclusive ? k <= hi : k < hi;
      if (!above_lo) continue;
      if (!below_hi) return;  // keys ascend; nothing further matches
      out->push_back(leaf->values[i]);
    }
    leaf = leaf->next_leaf;
  }
}

}  // namespace qcfe
