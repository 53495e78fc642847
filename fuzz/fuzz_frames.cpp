// libFuzzer entry point for the TCP handshake and round-frame payload
// decoders (net/framing.h).

#include "fuzz/fuzz_targets.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return dprbg::fuzz::frames_one(data, size);
}
