#include "gen.h"

namespace kbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint32_t Rng::Below(uint32_t n) {
  return static_cast<uint32_t>((Next() >> 32) * n >> 32);
}

double Rng::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  Rng mix(seed ^ (stream * 0xd1b54a32d192ed03ull));
  mix.Next();
  return mix.Next();
}

namespace {

void AppendCsvRow(const GenTable& t, size_t r, std::string* out) {
  for (size_t c = 0; c < t.cols; ++c) {
    if (c > 0) out->push_back(',');
    out->append(t.labels[c][t.at(r, c)]);
  }
  out->push_back('\n');
}

void RenderCsv(GenTable* t) {
  t->csv.clear();
  for (size_t c = 0; c < t->cols; ++c) {
    if (c > 0) t->csv.push_back(',');
    t->csv.append(t->header[c]);
  }
  t->csv.push_back('\n');
  for (size_t r = 0; r < t->rows; ++r) AppendCsvRow(*t, r, &t->csv);
}

struct Attribute {
  const char* name;
  std::vector<std::string> labels;
  std::vector<double> weights;
};

uint16_t Weighted(const std::vector<double>& weights, double total,
                  Rng* rng) {
  double u = rng->Unit() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u < 0.0) return static_cast<uint16_t>(i);
  }
  return static_cast<uint16_t>(weights.size() - 1);
}

const std::vector<Attribute>& CensusAttributes() {
  static const std::vector<Attribute> attrs = {
      {"age", {"a<20", "a20s", "a30s", "a40s", "a50s", "a60s", "a70+"},
       {9, 21, 24, 21, 13, 8, 4}},
      {"work", {"priv", "self", "fed", "state", "local", "none"},
       {68, 11, 4, 5, 7, 5}},
      {"edu", {"none", "prim", "hs", "college", "bach", "mast", "doc"},
       {3, 9, 31, 23, 22, 9, 3}},
      {"marital", {"never", "married", "divorced", "separated", "widowed"},
       {32, 47, 13, 4, 4}},
      {"occ",
       {"cler", "craft", "exec", "prof", "sales", "serv", "trans", "tech",
        "farm", "mil"},
       {12, 14, 12, 14, 11, 15, 8, 9, 4, 1}},
      {"race", {"r1", "r2", "r3", "r4", "r5"}, {72, 13, 8, 2, 5}},
      {"sex", {"m", "f"}, {51, 49}},
      {"region",
       {"n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8", "n9", "n10"},
       {82, 4, 2, 1, 1, 1, 1, 1, 1, 6}},
  };
  return attrs;
}

}  // namespace

GenTable UniformTable(size_t rows, size_t cols, uint32_t alphabet,
                      Rng* rng) {
  GenTable t;
  t.rows = rows;
  t.cols = cols;
  for (size_t c = 0; c < cols; ++c) {
    t.header.push_back("a" + std::to_string(c));
    std::vector<std::string> values;
    for (uint32_t v = 0; v < alphabet; ++v) {
      values.push_back("v" + std::to_string(v));
    }
    t.labels.push_back(std::move(values));
  }
  t.codes.resize(rows * cols);
  for (uint16_t& code : t.codes) code = static_cast<uint16_t>(rng->Below(alphabet));
  RenderCsv(&t);
  return t;
}

GenTable CensusLikeTable(size_t rows, Rng* rng) {
  const std::vector<Attribute>& attrs = CensusAttributes();
  GenTable t;
  t.rows = rows;
  t.cols = attrs.size();
  std::vector<double> totals;
  for (const Attribute& a : attrs) {
    t.header.push_back(a.name);
    t.labels.push_back(a.labels);
    double total = 0.0;
    for (const double w : a.weights) total += w;
    totals.push_back(total);
  }
  constexpr size_t kAge = 0, kEdu = 2, kMarital = 3, kOcc = 4;
  t.codes.resize(rows * t.cols);
  for (size_t r = 0; r < rows; ++r) {
    uint16_t* row = &t.codes[r * t.cols];
    for (size_t c = 0; c < t.cols; ++c) {
      row[c] = Weighted(attrs[c].weights, totals[c], rng);
    }
    // Degree holders lean to exec/prof/tech; the young are mostly
    // never married.
    if (row[kEdu] >= 4 && rng->Unit() < 0.6) {
      constexpr uint16_t kProfessional[] = {2, 3, 7};
      row[kOcc] = kProfessional[rng->Below(3)];
    }
    if (row[kAge] <= 1 && rng->Unit() < 0.6) row[kMarital] = 0;
  }
  RenderCsv(&t);
  return t;
}

}  // namespace kbench
