#include "checker.h"

#include <algorithm>
#include <unordered_map>

namespace kbench {

namespace {

Verdict Refuse(std::string why) {
  Verdict v;
  v.ok = false;
  v.why = std::move(why);
  return v;
}

}  // namespace

bool ReadCsv(std::string_view text,
             std::vector<std::vector<std::string>>* records,
             std::string* error) {
  records->clear();
  std::vector<std::string> record;
  std::string field;
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    bool quoted = false;
    if (text[i] == '"') {
      quoted = true;
      ++i;
      while (true) {
        if (i >= n) {
          *error = "unterminated quoted field";
          return false;
        }
        if (text[i] == '"') {
          if (i + 1 < n && text[i + 1] == '"') {
            field.push_back('"');
            i += 2;
            continue;
          }
          ++i;
          break;
        }
        field.push_back(text[i++]);
      }
    }
    while (i < n && text[i] != ',' && text[i] != '\n' && text[i] != '\r') {
      if (quoted || text[i] == '"') {
        *error = "stray quote or text after a quoted field";
        return false;
      }
      field.push_back(text[i++]);
    }
    record.push_back(std::move(field));
    field.clear();
    if (i < n && text[i] == ',') {
      ++i;
      if (i == n) record.emplace_back();
      continue;
    }
    if (i < n && text[i] == '\r') ++i;
    if (i < n && text[i] == '\n') ++i;
    records->push_back(std::move(record));
    record.clear();
  }
  if (!record.empty()) records->push_back(std::move(record));
  return true;
}

std::vector<size_t> SampleRows(size_t n, size_t count, uint64_t seed) {
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = i;
  if (count >= n) return rows;
  Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    const size_t j = i + rng.Below(static_cast<uint32_t>(n - i));
    std::swap(rows[i], rows[j]);
  }
  rows.resize(count);
  std::sort(rows.begin(), rows.end());
  return rows;
}

size_t KthNearestDistance(const GenTable& in, size_t row, size_t j) {
  std::vector<size_t> histogram(in.cols + 1, 0);
  const uint16_t* a = &in.codes[row * in.cols];
  for (size_t s = 0; s < in.rows; ++s) {
    if (s == row) continue;
    const uint16_t* b = &in.codes[s * in.cols];
    size_t d = 0;
    for (size_t c = 0; c < in.cols; ++c) d += a[c] != b[c];
    ++histogram[d];
  }
  size_t seen = 0;
  for (size_t d = 0; d <= in.cols; ++d) {
    seen += histogram[d];
    if (seen >= j) return d;
  }
  return in.cols;
}

Verdict CheckCells(const GenTable& in, const std::vector<uint16_t>& out,
                   size_t k, uint64_t reported_cost,
                   const std::vector<size_t>& sample_rows) {
  if (out.size() != in.rows * in.cols) {
    return Refuse("answer has " + std::to_string(out.size()) +
                  " cells, input has " + std::to_string(in.rows * in.cols));
  }
  Verdict v;
  std::vector<uint64_t> row_stars(in.rows, 0);
  for (size_t r = 0; r < in.rows; ++r) {
    for (size_t c = 0; c < in.cols; ++c) {
      const uint16_t cell = out[r * in.cols + c];
      if (cell == kStar) {
        ++row_stars[r];
      } else if (cell != in.at(r, c)) {
        return Refuse("row " + std::to_string(r) + " column " +
                      std::to_string(c) + " changed a non-star cell");
      }
    }
    v.stars += row_stars[r];
  }
  if (v.stars != reported_cost) {
    return Refuse("counted " + std::to_string(v.stars) +
                  " stars, program reported " +
                  std::to_string(reported_cost));
  }
  std::unordered_map<std::string, size_t> occurrences;
  occurrences.reserve(in.rows);
  const size_t row_bytes = in.cols * sizeof(uint16_t);
  for (size_t r = 0; r < in.rows; ++r) {
    const char* bytes = reinterpret_cast<const char*>(&out[r * in.cols]);
    ++occurrences[std::string(bytes, row_bytes)];
  }
  for (const auto& [row, count] : occurrences) {
    if (count < k) {
      return Refuse("an output row occurs " + std::to_string(count) +
                    " times, below k=" + std::to_string(k));
    }
  }
  if (k >= 2 && in.rows >= 2) {
    for (const size_t r : sample_rows) {
      const size_t bound = KthNearestDistance(in, r, k - 1);
      if (row_stars[r] < bound) {
        return Refuse("row " + std::to_string(r) + " has " +
                      std::to_string(row_stars[r]) +
                      " stars, below its (k-1)-NN distance " +
                      std::to_string(bound));
      }
    }
  }
  return v;
}

Verdict CheckCsvAnswer(const GenTable& in, std::string_view csv, size_t k,
                       uint64_t reported_cost,
                       const std::vector<size_t>& sample_rows) {
  std::vector<std::vector<std::string>> records;
  std::string error;
  if (!ReadCsv(csv, &records, &error)) return Refuse("bad CSV: " + error);
  if (records.empty() || records[0] != in.header) {
    return Refuse("answer header differs from the input header");
  }
  if (records.size() != in.rows + 1) {
    return Refuse("answer has " + std::to_string(records.size() - 1) +
                  " rows, input has " + std::to_string(in.rows));
  }
  std::vector<uint16_t> out(in.rows * in.cols);
  for (size_t r = 0; r < in.rows; ++r) {
    const std::vector<std::string>& record = records[r + 1];
    if (record.size() != in.cols) {
      return Refuse("answer row " + std::to_string(r) + " has " +
                    std::to_string(record.size()) + " fields");
    }
    for (size_t c = 0; c < in.cols; ++c) {
      if (record[c] == "*") {
        out[r * in.cols + c] = kStar;
      } else if (record[c] == in.labels[c][in.at(r, c)]) {
        out[r * in.cols + c] = in.at(r, c);
      } else {
        return Refuse("row " + std::to_string(r) + " column " +
                      std::to_string(c) + " reads '" + record[c] +
                      "', input has '" + in.labels[c][in.at(r, c)] + "'");
      }
    }
  }
  return CheckCells(in, out, k, reported_cost, sample_rows);
}

Verdict CheckPartitionAnswer(const GenTable& in,
                             const std::vector<std::vector<uint32_t>>& groups,
                             size_t k, uint64_t reported_cost,
                             const std::vector<size_t>& sample_rows) {
  std::vector<uint8_t> seen(in.rows, 0);
  std::vector<uint16_t> out(in.codes);
  for (size_t g = 0; g < groups.size(); ++g) {
    const std::vector<uint32_t>& group = groups[g];
    if (group.size() < k) {
      return Refuse("group " + std::to_string(g) + " has " +
                    std::to_string(group.size()) + " rows, below k=" +
                    std::to_string(k));
    }
    for (const uint32_t r : group) {
      if (r >= in.rows || seen[r]) {
        return Refuse("row " + std::to_string(r) +
                      " is out of range or in two groups");
      }
      seen[r] = 1;
    }
    for (size_t c = 0; c < in.cols; ++c) {
      const uint16_t first = in.at(group[0], c);
      bool agree = true;
      for (const uint32_t r : group) agree = agree && in.at(r, c) == first;
      if (agree) continue;
      for (const uint32_t r : group) out[r * in.cols + c] = kStar;
    }
  }
  for (size_t r = 0; r < in.rows; ++r) {
    if (!seen[r]) return Refuse("row " + std::to_string(r) + " is in no group");
  }
  return CheckCells(in, out, k, reported_cost, sample_rows);
}

}  // namespace kbench
