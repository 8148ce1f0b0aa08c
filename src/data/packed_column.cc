#include "data/packed_column.h"

#include "obs/metrics.h"

// EVOCAT_SIMD: compile-time toggle for the vectorized bulk-decode fast
// path. Auto-detected (SSE2 is part of the x86-64 baseline, AVX2 arrives
// with -march=native); pass -DEVOCAT_SIMD=0 to force the portable uint64_t
// core everywhere. Non-x86 targets (e.g. aarch64) always take the portable
// core — it is the reference implementation, not a fallback of lesser
// fidelity: both paths extract the same integer fields from the same words.
#if !defined(EVOCAT_SIMD)
#if defined(__SSE2__) || defined(__AVX2__)
#define EVOCAT_SIMD 1
#else
#define EVOCAT_SIMD 0
#endif
#endif

#if EVOCAT_SIMD && (defined(__SSE2__) || defined(__AVX2__))
#define EVOCAT_SIMD_X86 1
#include <immintrin.h>
#else
#define EVOCAT_SIMD_X86 0
#endif

namespace evocat {

namespace {

/// Kernel telemetry, bumped once per bulk call (never per word): words the
/// decode kernel walked, and which path served the call.
obs::Counter* WordsScannedCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "evocat_delta_plane_words_scanned_total",
      "64-bit words walked by the packed-column bulk kernels.");
  return counter;
}

obs::Counter* KernelPathCounter(bool simd) {
  static obs::Counter* simd_counter = obs::MetricsRegistry::Global().GetCounter(
      "evocat_delta_plane_kernel_calls_total",
      "Packed-column bulk kernel calls by decode path.", {{"path", "simd"}});
  static obs::Counter* scalar_counter =
      obs::MetricsRegistry::Global().GetCounter(
          "evocat_delta_plane_kernel_calls_total",
          "Packed-column bulk kernel calls by decode path.",
          {{"path", "scalar"}});
  return simd ? simd_counter : scalar_counter;
}

/// Words touched when decoding values [begin, end) at `bits` per value.
inline int64_t WordsSpanned(int64_t begin, int64_t end, int bits) {
  if (begin >= end) return 0;
  uint64_t first = (static_cast<uint64_t>(begin) * bits) >> 6;
  uint64_t last = (static_cast<uint64_t>(end) * bits - 1) >> 6;
  return static_cast<int64_t>(last - first + 1);
}

/// Portable word-walk: load each word once, peel every code that lives
/// entirely inside it, patch the (at most one) straddling code with a
/// single next-word load. `fn(code)` is called in index order.
template <class Fn>
inline void WalkWords(const uint64_t* words, int bits, uint64_t mask,
                      int64_t begin, int64_t end, Fn&& fn) {
  int64_t i = begin;
  while (i < end) {
    uint64_t bit = static_cast<uint64_t>(i) * static_cast<uint64_t>(bits);
    size_t word = static_cast<size_t>(bit >> 6);
    int offset = static_cast<int>(bit & 63u);
    uint64_t cur = words[word];
    while (offset + bits <= 64) {
      fn(static_cast<int32_t>((cur >> offset) & mask));
      offset += bits;
      if (++i == end) return;
    }
    if (offset < 64) {
      // Straddling code: low piece from this word, high piece from the next
      // (the guard word past the column keeps the load in bounds).
      uint64_t value = (cur >> offset) | (words[word + 1] << (64 - offset));
      fn(static_cast<int32_t>(value & mask));
      ++i;
    }
  }
}

#if EVOCAT_SIMD_X86

/// Vectorized decode for the byte-aligned widths. Codes at 4/8/16 bits
/// never straddle words, so the stream is a plain dense array of
/// nibbles/bytes/uint16s that widens to int32 with unpack ops (pure SSE2 —
/// no SSE4.1 dependency; AVX2 builds get the 256-bit converts below).
/// `begin` must be byte-aligned for the width, which the caller guarantees
/// by peeling a scalar head.

inline void DecodeBytes8(const uint8_t* bytes, int64_t count, int32_t* out) {
  const __m128i zero = _mm_setzero_si128();
  int64_t i = 0;
#if defined(__AVX2__)
  for (; i + 16 <= count; i += 16) {
    __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_cvtepu8_epi32(b));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 8),
                        _mm256_cvtepu8_epi32(_mm_srli_si128(b, 8)));
  }
#endif
  for (; i + 16 <= count; i += 16) {
    __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + i));
    __m128i lo16 = _mm_unpacklo_epi8(b, zero);
    __m128i hi16 = _mm_unpackhi_epi8(b, zero);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_unpacklo_epi16(lo16, zero));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 4),
                     _mm_unpackhi_epi16(lo16, zero));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 8),
                     _mm_unpacklo_epi16(hi16, zero));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 12),
                     _mm_unpackhi_epi16(hi16, zero));
  }
  for (; i < count; ++i) out[i] = bytes[i];
}

inline void DecodeWords16(const uint8_t* bytes, int64_t count, int32_t* out) {
  const __m128i zero = _mm_setzero_si128();
  int64_t i = 0;
#if defined(__AVX2__)
  for (; i + 8 <= count; i += 8) {
    __m128i w =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 2 * i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_cvtepu16_epi32(w));
  }
#endif
  for (; i + 8 <= count; i += 8) {
    __m128i w =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 2 * i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_unpacklo_epi16(w, zero));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 4),
                     _mm_unpackhi_epi16(w, zero));
  }
  for (; i < count; ++i) {
    out[i] = static_cast<int32_t>(bytes[2 * i]) |
             (static_cast<int32_t>(bytes[2 * i + 1]) << 8);
  }
}

inline void DecodeNibbles4(const uint8_t* bytes, int64_t count, int32_t* out) {
  const __m128i nibble_mask = _mm_set1_epi8(0x0F);
  int64_t i = 0;
  // 16 bytes -> 32 nibbles per iteration: split even/odd nibbles, then
  // interleave so bytes come out in stream order before widening.
  for (; i + 32 <= count; i += 32) {
    __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + i / 2));
    __m128i even = _mm_and_si128(b, nibble_mask);
    __m128i odd = _mm_and_si128(_mm_srli_epi16(b, 4), nibble_mask);
    __m128i lo = _mm_unpacklo_epi8(even, odd);
    __m128i hi = _mm_unpackhi_epi8(even, odd);
    const __m128i zero = _mm_setzero_si128();
    __m128i lo16a = _mm_unpacklo_epi8(lo, zero);
    __m128i lo16b = _mm_unpackhi_epi8(lo, zero);
    __m128i hi16a = _mm_unpacklo_epi8(hi, zero);
    __m128i hi16b = _mm_unpackhi_epi8(hi, zero);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_unpacklo_epi16(lo16a, zero));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 4),
                     _mm_unpackhi_epi16(lo16a, zero));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 8),
                     _mm_unpacklo_epi16(lo16b, zero));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 12),
                     _mm_unpackhi_epi16(lo16b, zero));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 16),
                     _mm_unpacklo_epi16(hi16a, zero));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 20),
                     _mm_unpackhi_epi16(hi16a, zero));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 24),
                     _mm_unpacklo_epi16(hi16b, zero));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 28),
                     _mm_unpackhi_epi16(hi16b, zero));
  }
  for (; i < count; ++i) {
    uint8_t byte = bytes[i / 2];
    out[i] = (i & 1) != 0 ? (byte >> 4) : (byte & 0x0F);
  }
}

/// Dispatches [begin, end) of a byte-aligned-width column to the SIMD
/// decoders, peeling a scalar head until `begin` lands on a byte boundary.
/// Returns false when the width has no vector path.
inline bool DecodeRangeSimd(const uint64_t* words, int bits, uint64_t mask,
                            int64_t begin, int64_t end, int32_t* out) {
  if (bits != 4 && bits != 8 && bits != 16) return false;
  const int values_per_byte_group = bits == 4 ? 2 : 1;
  int64_t i = begin;
  while (i < end && (i % values_per_byte_group) != 0) {
    uint64_t bit = static_cast<uint64_t>(i) * static_cast<uint64_t>(bits);
    *out++ = static_cast<int32_t>((words[bit >> 6] >> (bit & 63u)) & mask);
    ++i;
  }
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(words) +
                         (static_cast<uint64_t>(i) * bits) / 8;
  int64_t count = end - i;
  if (count <= 0) return true;
  if (bits == 4) {
    DecodeNibbles4(bytes, count, out);
  } else if (bits == 8) {
    DecodeBytes8(bytes, count, out);
  } else {
    DecodeWords16(bytes, count, out);
  }
  return true;
}

#endif  // EVOCAT_SIMD_X86

}  // namespace

bool PackedColumn::SimdEnabled() { return EVOCAT_SIMD_X86 != 0; }

int PackedColumn::BitWidthFor(int32_t cardinality) {
  int bits = 1;
  while ((int64_t{1} << bits) < static_cast<int64_t>(cardinality)) ++bits;
  return bits;
}

PackedColumn PackedColumn::Pack(const std::vector<int32_t>& codes,
                                int32_t cardinality) {
  PackedColumn column;
  column.bits_ = BitWidthFor(cardinality);
  column.mask_ = (uint64_t{1} << column.bits_) - 1;
  column.num_values_ = static_cast<int64_t>(codes.size());
  uint64_t total_bits = static_cast<uint64_t>(codes.size()) *
                        static_cast<uint64_t>(column.bits_);
  // One guard word past the end so straddle reads of the last value never
  // run off the buffer.
  size_t num_words = static_cast<size_t>((total_bits + 63) >> 6) + 1;
  column.words_ = std::make_shared<std::vector<uint64_t>>(num_words, 0);
  uint64_t* words = column.words_->data();
  uint64_t bit = 0;
  for (int32_t code : codes) {
    auto value = static_cast<uint64_t>(static_cast<uint32_t>(code)) & column.mask_;
    size_t word = static_cast<size_t>(bit >> 6);
    int offset = static_cast<int>(bit & 63u);
    words[word] |= value << offset;
    if (offset + column.bits_ > 64) words[word + 1] |= value >> (64 - offset);
    bit += static_cast<uint64_t>(column.bits_);
  }
  return column;
}

void PackedColumn::Set(int64_t i, int32_t code) {
  Detach();
  uint64_t bit = static_cast<uint64_t>(i) * static_cast<uint64_t>(bits_);
  size_t word = static_cast<size_t>(bit >> 6);
  int offset = static_cast<int>(bit & 63u);
  auto value = static_cast<uint64_t>(static_cast<uint32_t>(code)) & mask_;
  uint64_t* words = words_->data();
  words[word] = (words[word] & ~(mask_ << offset)) | (value << offset);
  if (offset + bits_ > 64) {
    int spill = 64 - offset;
    words[word + 1] =
        (words[word + 1] & ~(mask_ >> spill)) | (value >> spill);
  }
}

std::vector<int32_t> PackedColumn::Unpack() const {
  std::vector<int32_t> codes(static_cast<size_t>(num_values_));
  DecodeRange(0, num_values_, codes.data());
  return codes;
}

void PackedColumn::DecodeRange(int64_t begin, int64_t end, int32_t* out) const {
  if (begin >= end) return;
  const uint64_t* words = words_->data();
  if (obs::MetricsEnabled()) {
    WordsScannedCounter()->Add(WordsSpanned(begin, end, bits_));
#if EVOCAT_SIMD_X86
    KernelPathCounter(bits_ == 4 || bits_ == 8 || bits_ == 16)->Increment();
#else
    KernelPathCounter(false)->Increment();
#endif
  }
#if EVOCAT_SIMD_X86
  if (DecodeRangeSimd(words, bits_, mask_, begin, end, out)) return;
#endif
  WalkWords(words, bits_, mask_, begin, end,
            [&out](int32_t code) { *out++ = code; });
}

}  // namespace evocat
