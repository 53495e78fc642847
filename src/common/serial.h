// Minimal byte-oriented serialization for protocol messages.
//
// All protocol payloads are encoded with these little-endian writers and
// readers. Readers are *defensive*: malformed input (as a Byzantine sender
// would produce) never causes undefined behaviour — it flips the reader
// into a failed state that the caller must check.

#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/varint.h"

namespace dprbg {

// Little-endian store/load of the low N bytes of a u64 (1 <= N <= 8).
// Portable byte shifts with no endian fork, unrolled at compile time so
// the compiler merges them into one store or load (for N = 8, one mov).
template <unsigned N>
inline void store_le(std::uint8_t* p, std::uint64_t v) noexcept {
  static_assert(N >= 1 && N <= 8);
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    ((p[I] = static_cast<std::uint8_t>(v >> (8 * I))), ...);
  }(std::make_index_sequence<N>{});
}

template <unsigned N>
[[nodiscard]] inline std::uint64_t load_le(const std::uint8_t* p) noexcept {
  static_assert(N >= 1 && N <= 8);
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    return ((std::uint64_t{p[I]} << (8 * I)) | ...);
  }(std::make_index_sequence<N>{});
}

// Append-only little-endian byte writer.
class ByteWriter {
 public:
  ByteWriter() = default;
  // Pre-reserves capacity for payloads whose size is known up front (row
  // and envelope encoders), so the hot encode paths append without
  // reallocating.
  explicit ByteWriter(std::size_t reserve_bytes) {
    buf_.reserve(reserve_bytes);
  }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { le<2>(v); }
  void u32(std::uint32_t v) { le<4>(v); }
  void u64(std::uint64_t v) { le<8>(v); }

  // The low N bytes of `v`, little-endian, as one append.
  template <unsigned N>
  void le(std::uint64_t v) {
    std::uint8_t b[N]{};
    store_le<N>(b, v);
    buf_.insert(buf_.end(), b, b + N);
  }

  // Grows the buffer by `n` bytes and returns where they start, for bulk
  // encoders that fill a whole row after one size update. The pointer is
  // valid until the next append.
  std::uint8_t* extend(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  void bytes(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  // Canonical unsigned varint (wire v1 integer encoding, common/varint.h).
  void uvarint(std::uint64_t v) { append_varint(buf_, v); }

  // Length-prefixed vector of u64 (the common share-list payload).
  void u64_vec(std::span<const std::uint64_t> v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (std::uint64_t x : v) u64(x);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const& {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

// Little-endian byte reader over a borrowed buffer. On any out-of-bounds
// read the reader fails permanently and returns zeros; callers check
// `ok()` once at the end of decoding.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(le<1>()); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(le<2>()); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le<4>()); }
  std::uint64_t u64() { return le<8>(); }

  // The next N bytes as a little-endian integer: one bounds check, one
  // load. A short buffer fails the reader and returns 0.
  template <unsigned N>
  std::uint64_t le() {
    if (N > remaining()) {
      ok_ = false;
      pos_ = data_.size();
      return 0;
    }
    const std::uint64_t v = load_le<N>(data_.data() + pos_);
    pos_ += N;
    return v;
  }

  // Reads a length-prefixed u64 vector; rejects absurd lengths so a
  // Byzantine sender cannot force a huge allocation.
  std::vector<std::uint64_t> u64_vec(std::size_t max_len = 1u << 20) {
    const std::uint32_t len = u32();
    if (len > max_len || len * 8ull > remaining()) {
      ok_ = false;
      return {};
    }
    std::vector<std::uint64_t> out;
    out.reserve(len);
    for (std::uint32_t i = 0; i < len; ++i) out.push_back(u64());
    return out;
  }

  // Bounds-checked bulk read of `len` raw bytes. The length is validated
  // against both the caller's cap and the bytes actually present *before*
  // anything is allocated, so a hostile length prefix can neither trigger
  // a huge allocation nor read out of bounds.
  std::vector<std::uint8_t> bytes(std::size_t len,
                                  std::size_t max_len = 1u << 20) {
    if (!ok_ || len > max_len || len > remaining()) {
      ok_ = false;
      pos_ = data_.size();
      return {};
    }
    std::vector<std::uint8_t> out(data_.begin() + pos_,
                                  data_.begin() + pos_ + len);
    pos_ += len;
    return out;
  }

  // Canonical unsigned varint; an overlong, truncated, or overflowing
  // encoding fails the reader like any other malformed field.
  std::uint64_t uvarint() {
    if (!ok_) return 0;
    const VarintDecode d = read_varint(data_.subspan(pos_));
    if (!d.ok) {
      ok_ = false;
      pos_ = data_.size();
      return 0;
    }
    pos_ += d.bytes;
    return d.value;
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  // True iff decoding consumed the whole buffer without error.
  [[nodiscard]] bool done() const { return ok_ && pos_ == data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace dprbg
