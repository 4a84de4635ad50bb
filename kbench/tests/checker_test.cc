// Tests of the benchmark's output checker: it must accept a correct
// k-anonymous answer and refuse a group smaller than k, a changed
// non-star cell and a star count off by one, and it must compute the
// (k-1)-NN distances its per-row lower bound uses.
//
// Run: kbench_checker_test (exit 0 when every case passes).

#include <cstdio>
#include <string>
#include <vector>

#include "checker.h"
#include "gen.h"

namespace {

int failures = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  } else {
    std::printf("ok:   %s\n", what);
  }
}

/// Six rows over two columns: rows 0-2 share x, rows 3-5 share y.
kbench::GenTable SmallTable() {
  kbench::GenTable t;
  t.rows = 6;
  t.cols = 2;
  t.header = {"c0", "c1"};
  t.labels = {{"x", "y"}, {"p", "q", "r"}};
  t.codes = {0, 0, 0, 1, 0, 2, 1, 0, 1, 0, 1, 1};
  return t;
}

/// The 3-anonymization grouping {0,1,2} and {3,4,5}: column 1 starred in
/// both groups (6 stars).
const char* kGoodCsv =
    "c0,c1\n"
    "x,*\n"
    "x,*\n"
    "x,*\n"
    "y,*\n"
    "y,*\n"
    "y,*\n";

std::vector<size_t> AllRows() { return kbench::SampleRows(6, 6, 1); }

void TestCsvAnswers() {
  const kbench::GenTable t = SmallTable();
  const kbench::Verdict good = kbench::CheckCsvAnswer(t, kGoodCsv, 3, 6, AllRows());
  Expect(good.ok && good.stars == 6, "accepts a correct 3-anonymous answer");

  const char* small_group =
      "c0,c1\n"
      "x,p\n"
      "x,*\n"
      "x,*\n"
      "y,*\n"
      "y,*\n"
      "y,*\n";
  Expect(!kbench::CheckCsvAnswer(t, small_group, 3, 5, AllRows()).ok,
         "refuses a group smaller than k");

  // Row 5 (y,q) reads y,p. The answer is still 3-anonymous with its
  // reported cost, and rows 0-2 (the sample) meet their lower bound, so
  // only the changed cell can refuse it.
  const char* changed_cell =
      "c0,c1\n"
      "x,*\n"
      "x,*\n"
      "x,*\n"
      "y,p\n"
      "y,p\n"
      "y,p\n";
  Expect(!kbench::CheckCsvAnswer(t, changed_cell, 3, 3, {0, 1, 2}).ok,
         "refuses a changed non-star cell");
  // Row 0 reads y where the input has x. Read back as its input value,
  // this is the correct answer, so a reader that took any non-star
  // field for the input's value would accept it.
  const char* relabelled =
      "c0,c1\n"
      "y,*\n"
      "x,*\n"
      "x,*\n"
      "y,*\n"
      "y,*\n"
      "y,*\n";
  Expect(!kbench::CheckCsvAnswer(t, relabelled, 3, 6, AllRows()).ok,
         "refuses a non-star field that names another input value");

  Expect(!kbench::CheckCsvAnswer(t, kGoodCsv, 3, 5, AllRows()).ok,
         "refuses a reported cost one below the stars counted");
  Expect(!kbench::CheckCsvAnswer(t, kGoodCsv, 3, 7, AllRows()).ok,
         "refuses a reported cost one above the stars counted");

  const char* bad_header = "c0,cX\nx,*\nx,*\nx,*\ny,*\ny,*\ny,*\n";
  Expect(!kbench::CheckCsvAnswer(t, bad_header, 3, 6, AllRows()).ok,
         "refuses a changed header");

  const char* quoted =
      "\"c0\",c1\r\n"
      "x,\"*\"\r\n"
      "x,*\r\n"
      "x,*\r\n"
      "y,*\r\n"
      "y,*\r\n"
      "y,*\r\n";
  Expect(kbench::CheckCsvAnswer(t, quoted, 3, 6, AllRows()).ok,
         "reads quoted fields and CRLF record ends");
}

void TestLowerBound() {
  // Rows 00, 00, 11, 10: row 2's nearest other row is row 3 (distance
  // 1); row 0's second-nearest is row 3 (distance 1).
  kbench::GenTable t;
  t.rows = 4;
  t.cols = 2;
  t.header = {"c0", "c1"};
  t.labels = {{"a", "b"}, {"a", "b"}};
  t.codes = {0, 0, 0, 0, 1, 1, 1, 0};
  Expect(kbench::KthNearestDistance(t, 2, 1) == 1, "computes a 1-NN distance");
  Expect(kbench::KthNearestDistance(t, 0, 1) == 0,
         "counts an identical row at distance 0");
  Expect(kbench::KthNearestDistance(t, 0, 2) == 1, "computes a 2-NN distance");
  const std::vector<uint16_t> cells = {0, 0, 0, 0, 1, kbench::kStar, 1,
                                       kbench::kStar};
  Expect(kbench::CheckCells(t, cells, 2, 2, {0, 1, 2, 3}).ok,
         "accepts rows starred up to their (k-1)-NN distance");
  Expect(!kbench::CheckCells(t, t.codes, 2, 0, {0, 1, 2, 3}).ok,
         "refuses an unstarred relation that is not 2-anonymous");
}

void TestChangedCell() {
  // The relation of the CSV case above, checked on codes: row 5 (y,q)
  // is given as (y,p), and nothing else is wrong.
  const kbench::GenTable t = SmallTable();
  const uint16_t s = kbench::kStar;
  const std::vector<uint16_t> cells = {0, s, 0, s, 0, s, 1, 0, 1, 0, 1, 0};
  Expect(!kbench::CheckCells(t, cells, 3, 3, {0, 1, 2}).ok,
         "refuses a changed non-star cell in a relation of codes");
}

void TestPartitionAnswers() {
  const kbench::GenTable t = SmallTable();
  const std::vector<std::vector<uint32_t>> good = {{0, 1, 2}, {3, 4, 5}};
  Expect(kbench::CheckPartitionAnswer(t, good, 3, 6, AllRows()).ok,
         "accepts a correct partition");
  Expect(!kbench::CheckPartitionAnswer(t, {{0, 1}, {2, 3, 4, 5}}, 3, 4,
                                       AllRows())
              .ok,
         "refuses a partition group smaller than k");
  Expect(!kbench::CheckPartitionAnswer(t, {{0, 1, 2}, {3, 4}}, 2, 4,
                                       AllRows())
              .ok,
         "refuses a partition that leaves a row out");
  Expect(!kbench::CheckPartitionAnswer(t, {{0, 1, 2}, {2, 3, 4, 5}}, 3, 10,
                                       AllRows())
              .ok,
         "refuses a row in two groups");
  Expect(!kbench::CheckPartitionAnswer(t, good, 3, 7, AllRows()).ok,
         "refuses a partition whose reported cost is off by one");
}

void TestGeneratorIsSeeded() {
  kbench::Rng a(kbench::StreamSeed(7, 3));
  kbench::Rng b(kbench::StreamSeed(7, 3));
  kbench::Rng c(kbench::StreamSeed(8, 3));
  const kbench::GenTable ta = kbench::CensusLikeTable(64, &a);
  const kbench::GenTable tb = kbench::CensusLikeTable(64, &b);
  const kbench::GenTable tc = kbench::CensusLikeTable(64, &c);
  Expect(ta.csv == tb.csv, "same seed gives the same table");
  Expect(ta.csv != tc.csv, "another seed gives another table");
  std::vector<std::vector<std::string>> records;
  std::string error;
  Expect(kbench::ReadCsv(ta.csv, &records, &error) && records.size() == 65 &&
             records[0] == ta.header,
         "generated CSV reads back with its header and every row");
}

}  // namespace

int main() {
  TestCsvAnswers();
  TestLowerBound();
  TestChangedCell();
  TestPartitionAnswers();
  TestGeneratorIsSeeded();
  if (failures > 0) {
    std::printf("%d checker test(s) failed\n", failures);
    return 1;
  }
  std::printf("all checker tests passed\n");
  return 0;
}
