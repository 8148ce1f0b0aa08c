/// \file packed_column.h
/// \brief Build-capability flag read by the perfbench runner's ready line.
///
/// The library has no bit-packed columns and no hand-vectorized kernels, so
/// `SimdEnabled()` is always false. Only `perfbench/runner.cc` includes this
/// header.

#ifndef EVOCAT_DATA_PACKED_COLUMN_H_
#define EVOCAT_DATA_PACKED_COLUMN_H_

namespace evocat {

struct PackedColumn {
  static bool SimdEnabled() { return false; }
};

}  // namespace evocat

#endif  // EVOCAT_DATA_PACKED_COLUMN_H_
