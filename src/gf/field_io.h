// Serialization of field elements into protocol messages.
//
// Elements travel as fixed-width little-endian integers of F::kBytes
// bytes, so message sizes match the paper's accounting (a share of a
// k-bit secret costs k bits on the wire).

#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/serial.h"
#include "gf/field_concept.h"

namespace dprbg {

template <FiniteField F>
void write_elem(ByteWriter& w, F e) {
  w.le<F::kBytes>(e.to_uint());
}

// Appends a whole row, byte-identical to write_elem on each element in
// order, after one size update.
template <FiniteField F>
void write_elem_row(ByteWriter& w, std::span<const F> vals) {
  std::uint8_t* p = w.extend(vals.size() * F::kBytes);
  for (const F& v : vals) {
    store_le<F::kBytes>(p, v.to_uint());
    p += F::kBytes;
  }
}

// A short buffer fails the reader and yields zero.
template <FiniteField F>
F read_elem(ByteReader& r) {
  return F::from_uint(r.le<F::kBytes>());
}

// Decodes an untrusted buffer as exactly `count` field elements — the
// only shape an honest sender produces for a share row. The size is
// validated once, before any allocation, so a Byzantine body can neither
// over-allocate nor smuggle trailing bytes; the elements then decode
// straight from the buffer.
template <FiniteField F>
std::optional<std::vector<F>> decode_elem_row(
    std::span<const std::uint8_t> bytes, std::size_t count) {
  if (bytes.size() != count * F::kBytes) return std::nullopt;
  std::vector<F> out(count);
  const std::uint8_t* p = bytes.data();
  for (F& e : out) {
    e = F::from_uint(load_le<F::kBytes>(p));
    p += F::kBytes;
  }
  return out;
}

}  // namespace dprbg
