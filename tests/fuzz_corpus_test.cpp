// Replays the checked-in fuzz seed corpora (fuzz/corpus/) through the
// fuzz entry points in the plain (non-instrumented) build, so every
// tier-1 run exercises the exact adversarial inputs the fuzz targets
// gate on — a corpus regression (or an invariant the corpora violate)
// fails here, not only in the sanitizer smoke gate. Each file is also
// cross-fed through every other target: the decoders must tolerate any
// byte string, not just inputs shaped for them.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "fuzz/fuzz_targets.h"

#ifndef DPRBG_CORPUS_DIR
#error "DPRBG_CORPUS_DIR must point at the checked-in fuzz corpus root"
#endif

namespace dprbg {
namespace {

namespace fs = std::filesystem;

using FuzzEntry = int (*)(const std::uint8_t*, std::size_t);

const std::map<std::string, FuzzEntry>& targets() {
  static const std::map<std::string, FuzzEntry> kTargets{
      {"varint", &fuzz::varint_one},
      {"envelope_header", &fuzz::envelope_header_one},
      {"protocol_decoders", &fuzz::protocol_decoders_one},
      {"frames", &fuzz::frames_one},
  };
  return kTargets;
}

std::vector<std::uint8_t> read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

std::vector<fs::path> corpus_files(const std::string& target) {
  const fs::path dir = fs::path(DPRBG_CORPUS_DIR) / target;
  std::vector<fs::path> files;
  if (fs::exists(dir)) {
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
      if (e.is_regular_file()) files.push_back(e.path());
    }
  }
  return files;
}

TEST(FuzzCorpusTest, CorporaAreCheckedInAndNonTrivial) {
  // A missing or near-empty corpus means the smoke gate fuzzes from
  // nothing — fail loudly instead of silently degrading coverage.
  for (const auto& [name, entry] : targets()) {
    (void)entry;
    EXPECT_GE(corpus_files(name).size(), 8u) << "corpus " << name;
  }
}

TEST(FuzzCorpusTest, EveryTargetReplaysItsOwnCorpus) {
  for (const auto& [name, entry] : targets()) {
    for (const fs::path& p : corpus_files(name)) {
      const auto bytes = read_file(p);
      // The harness invariants trap on violation; reaching the next
      // statement IS the assertion.
      entry(bytes.data(), bytes.size());
      SUCCEED() << name << ": " << p.filename();
    }
  }
}

TEST(FuzzCorpusTest, CrossFeedingCorporaNeverTraps) {
  // Inputs crafted for one decoder are hostile garbage to another —
  // exactly what a confused or malicious peer would deliver.
  for (const auto& [src, src_entry] : targets()) {
    (void)src_entry;
    for (const fs::path& p : corpus_files(src)) {
      const auto bytes = read_file(p);
      for (const auto& [dst, entry] : targets()) {
        if (dst == src) continue;
        entry(bytes.data(), bytes.size());
      }
    }
  }
}

TEST(FuzzCorpusTest, EmptyAndTinyInputsAreHandled) {
  for (const auto& [name, entry] : targets()) {
    (void)name;
    entry(nullptr, 0);
    const std::uint8_t one = 0x00;
    entry(&one, 1);
    const std::uint8_t ff = 0xFF;
    entry(&ff, 1);
  }
}

}  // namespace
}  // namespace dprbg
