#ifndef KBENCH_GEN_H_
#define KBENCH_GEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

/// \file
/// Seeded input generation for the benchmark. Every table is a pure
/// function of (seed, stream, shape): the benchmark derives one stream
/// per connection or job slot, so the inputs never depend on thread
/// timing. The generators are the benchmark's own; the program under
/// test only ever sees the CSV text they produce.

namespace kbench {

/// SplitMix64: small, fast, and good enough for input generation.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n must be positive.
  uint32_t Below(uint32_t n);
  /// Uniform in [0, 1).
  double Unit();

 private:
  uint64_t state_;
};

/// Mixes a seed with a stream label into an independent stream seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// A generated relation: its dictionary-coded cells (row-major, code i of
/// column c is labels[c][i]) and the CSV text handed to the program.
struct GenTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> labels;
  size_t rows = 0;
  size_t cols = 0;
  std::vector<uint16_t> codes;
  std::string csv;

  uint16_t at(size_t r, size_t c) const { return codes[r * cols + c]; }
};

/// Uniform categorical table: `cols` columns a0.., each over `alphabet`
/// values v0.. drawn uniformly (the shape of kanon_load's request pool).
GenTable UniformTable(size_t rows, size_t cols, uint32_t alphabet,
                      Rng* rng);

/// Census-like table: 8 categorical quasi-identifiers with cardinalities
/// 2..10, skewed marginals and two correlated pairs (education with
/// occupation, age band with marital status).
GenTable CensusLikeTable(size_t rows, Rng* rng);

}  // namespace kbench

#endif  // KBENCH_GEN_H_
