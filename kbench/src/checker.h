#ifndef KBENCH_CHECKER_H_
#define KBENCH_CHECKER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gen.h"

/// \file
/// The benchmark's output checker. It shares no code with the program
/// under test: it reads answers with its own CSV reader, groups rows and
/// counts stars itself, and computes its own Hamming distances. An
/// answer passes when
///   - every output row is its input row with some cells replaced by *;
///   - every distinct output row occurs at least k times;
///   - the stars counted equal the cost the program reported;
///   - each sampled row has at least as many stars as its distance to
///     its (k-1)-th nearest other input row. Every row of a group of
///     size >= k differs from k-1 others only in its starred columns, so
///     any k-anonymizer meets this bound.

namespace kbench {

/// Code of a suppressed cell in an anonymized relation.
inline constexpr uint16_t kStar = 0xffff;

struct Verdict {
  bool ok = true;
  /// Why the answer was refused (empty when ok).
  std::string why;
  /// Stars counted in the answer.
  uint64_t stars = 0;
};

/// Parses CSV text: comma-separated fields, optional double quotes with
/// "" escapes, LF or CRLF record ends. Returns false on a malformed
/// quote and sets *error.
bool ReadCsv(std::string_view text,
             std::vector<std::vector<std::string>>* records,
             std::string* error);

/// `count` distinct row ids of [0, n) drawn from `seed` (all rows when
/// count >= n), ascending.
std::vector<size_t> SampleRows(size_t n, size_t count, uint64_t seed);

/// Hamming distance from `row` to its j-th nearest other row of `in`,
/// 1 <= j < in.rows.
size_t KthNearestDistance(const GenTable& in, size_t row, size_t j);

/// Checks an anonymized relation `out` (row-major codes of `in`'s shape,
/// kStar for suppressed cells).
Verdict CheckCells(const GenTable& in, const std::vector<uint16_t>& out,
                   size_t k, uint64_t reported_cost,
                   const std::vector<size_t>& sample_rows);

/// Checks an answer returned as CSV text (header first, rows in input
/// order).
Verdict CheckCsvAnswer(const GenTable& in, std::string_view csv, size_t k,
                       uint64_t reported_cost,
                       const std::vector<size_t>& sample_rows);

/// Checks an answer returned as a partition of `in`'s rows: each row in
/// exactly one group, every group of size >= k. The relation the
/// partition stands for (each group's disagreeing columns starred) is
/// then checked with CheckCells, so `reported_cost` must equal the
/// benchmark's own recount.
Verdict CheckPartitionAnswer(const GenTable& in,
                             const std::vector<std::vector<uint32_t>>& groups,
                             size_t k, uint64_t reported_cost,
                             const std::vector<size_t>& sample_rows);

}  // namespace kbench

#endif  // KBENCH_CHECKER_H_
