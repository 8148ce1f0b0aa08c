#include "data/stats.h"

#include <cstdlib>

namespace evocat {

std::vector<int64_t> CategoryCounts(const Dataset& dataset, int attr) {
  std::vector<int64_t> counts(
      static_cast<size_t>(dataset.schema().attribute(attr).cardinality()), 0);
  for (int32_t code : dataset.column(attr)) {
    counts[static_cast<size_t>(code)] += 1;
  }
  return counts;
}

std::vector<double> CategoryFrequencies(const Dataset& dataset, int attr) {
  auto counts = CategoryCounts(dataset, attr);
  std::vector<double> freqs(counts.size(), 0.0);
  double n = static_cast<double>(dataset.num_rows());
  if (n <= 0) return freqs;
  for (size_t i = 0; i < counts.size(); ++i) {
    freqs[i] = static_cast<double>(counts[i]) / n;
  }
  return freqs;
}

uint64_t ContingencyTable::PackKey(const std::vector<int32_t>& codes) {
  uint64_t key = 0;
  for (size_t i = 0; i < codes.size(); ++i) {
    key |= (static_cast<uint64_t>(static_cast<uint32_t>(codes[i])) & 0xFFFFu)
           << (16 * i);
  }
  return key;
}

Result<ContingencyTable> ContingencyTable::Build(const Dataset& dataset,
                                                 const std::vector<int>& attrs) {
  if (attrs.empty() || attrs.size() > 4) {
    return Status::Invalid("contingency table supports 1..4 attributes, got ",
                           attrs.size());
  }
  for (int a : attrs) {
    if (a < 0 || a >= dataset.num_attributes()) {
      return Status::OutOfRange("attribute index ", a, " out of range");
    }
    if (dataset.schema().attribute(a).cardinality() > 0xFFFF) {
      return Status::Invalid("attribute cardinality exceeds 65535");
    }
  }
  ContingencyTable table;
  table.attrs_ = attrs;
  std::vector<int32_t> codes(attrs.size());
  for (int64_t r = 0; r < dataset.num_rows(); ++r) {
    for (size_t i = 0; i < attrs.size(); ++i) {
      codes[i] = dataset.Code(r, attrs[i]);
    }
    table.cells_[PackKey(codes)] += 1;
    table.total_ += 1;
  }
  return table;
}

void ContingencyTable::AccumulateRange(
    const Dataset& dataset, const std::vector<int>& attrs, int64_t begin,
    int64_t end, std::unordered_map<uint64_t, int64_t>* cells) {
  std::vector<const Dataset::Column*> columns;
  columns.reserve(attrs.size());
  for (int attr : attrs) columns.push_back(&dataset.column(attr));
  for (int64_t r = begin; r < end; ++r) {
    uint64_t key = 0;
    for (size_t i = 0; i < columns.size(); ++i) {
      key |= (static_cast<uint64_t>(static_cast<uint32_t>(
                  (*columns[i])[static_cast<size_t>(r)])) &
              0xFFFFu)
             << (16 * i);
    }
    (*cells)[key] += 1;
  }
}

int64_t ContingencyTable::Count(const std::vector<int32_t>& codes) const {
  auto it = cells_.find(PackKey(codes));
  return it == cells_.end() ? 0 : it->second;
}

int64_t ContingencyTable::L1Distance(const ContingencyTable& other) const {
  int64_t dist = 0;
  for (const auto& [key, count] : cells_) {
    auto it = other.cells_.find(key);
    int64_t other_count = it == other.cells_.end() ? 0 : it->second;
    dist += std::llabs(count - other_count);
  }
  // Cells present only in `other`.
  for (const auto& [key, count] : other.cells_) {
    if (cells_.find(key) == cells_.end()) dist += std::llabs(count);
  }
  return dist;
}

std::vector<double> CategoryMidranks(const Dataset& dataset, int attr) {
  return MidranksFromCounts(CategoryCounts(dataset, attr));
}

std::vector<double> MidranksFromCounts(const std::vector<int64_t>& counts) {
  std::vector<double> midranks(counts.size(), 0.0);
  double cum = 0.0;
  for (size_t c = 0; c < counts.size(); ++c) {
    double cnt = static_cast<double>(counts[c]);
    // Average of positions cum+1 .. cum+cnt; boundary position when empty.
    midranks[c] = cnt > 0 ? cum + (cnt + 1.0) / 2.0 : cum + 0.5;
    cum += cnt;
  }
  return midranks;
}

std::vector<std::vector<int>> SubsetsOfSize(int n, int k) {
  std::vector<std::vector<int>> out;
  if (k <= 0 || k > n) return out;
  std::vector<int> subset(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) subset[static_cast<size_t>(i)] = i;
  while (true) {
    out.push_back(subset);
    // Advance to the next lexicographic k-subset.
    int i = k - 1;
    while (i >= 0 && subset[static_cast<size_t>(i)] == n - k + i) --i;
    if (i < 0) break;
    ++subset[static_cast<size_t>(i)];
    for (int j = i + 1; j < k; ++j) {
      subset[static_cast<size_t>(j)] = subset[static_cast<size_t>(j - 1)] + 1;
    }
  }
  return out;
}

}  // namespace evocat
