// Unit tests for the srbsg-verify bounded model checker library:
// minimizer behavior, cell grid shape, exhaustive passes at shrunk
// bounds, and — the core selftest property — that each seeded mutation
// is caught by its check family with a minimized, replayable witness.

#include "verify/verify.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/check.hpp"
#include "verify/checks.hpp"
#include "verify/minimize.hpp"
#include "verify/report.hpp"

namespace srbsg::verify {
namespace {

Bounds tiny_bounds() {
  Bounds b;
  b.min_width = 4;
  b.max_width = 5;
  b.max_stages = 4;
  b.key_budget_bits = 8;
  b.bank_lines = {16};
  b.seeds = 2;
  b.rotation_rounds = 2;
  b.max_pattern_len = 2;
  return b;
}

const Cell& find_cell(const std::vector<Cell>& cells, const std::string& prefix) {
  for (const Cell& c : cells) {
    if (c.id.rfind(prefix, 0) == 0) return c;
  }
  throw CheckFailure("no cell with prefix " + prefix);
}

TEST(Ddmin, ShrinksToTheTwoCulprits) {
  // Fails iff the trace contains both a 3 and a 7.
  const auto fails = [](const std::vector<u64>& t) {
    return std::count(t.begin(), t.end(), 3) > 0 && std::count(t.begin(), t.end(), 7) > 0;
  };
  std::vector<u64> trace;
  for (u64 i = 0; i < 64; ++i) trace.push_back(i % 10);
  ASSERT_TRUE(fails(trace));
  const MinimizeResult min = ddmin(trace, fails);
  EXPECT_TRUE(min.minimal);
  ASSERT_EQ(min.trace.size(), 2u);
  EXPECT_TRUE(fails(min.trace));
}

TEST(Ddmin, MonotonePredicateReachesExactThreshold) {
  const auto fails = [](const std::vector<u64>& t) { return t.size() >= 5; };
  std::vector<u64> trace(40, 1);
  const MinimizeResult min = ddmin(trace, fails);
  EXPECT_TRUE(min.minimal);
  EXPECT_EQ(min.trace.size(), 5u);
}

TEST(Ddmin, BudgetExhaustionStillFails) {
  const auto fails = [](const std::vector<u64>& t) { return t.size() >= 3; };
  std::vector<u64> trace(64, 1);
  const MinimizeResult min = ddmin(trace, fails, /*max_tests=*/3);
  EXPECT_FALSE(min.minimal);
  EXPECT_TRUE(fails(min.trace));
}

TEST(CellGrid, CoversEveryFamilyAndScheme) {
  const Bounds b = tiny_bounds();
  const std::vector<Cell> cells = list_cells(b);
  // 2 feistel widths + 8 schemes x 1 size x 2 stepping families + 8 batch
  // + 8 epoch.
  EXPECT_EQ(cells.size(), 2u + 16u + 8u + 8u);
  u64 feistel = 0;
  u64 roundtrip = 0;
  u64 preserve = 0;
  u64 batch = 0;
  u64 epoch = 0;
  for (const Cell& c : cells) {
    feistel += c.check == detail::kFeistelFamily;
    roundtrip += c.check == detail::kRoundtripFamily;
    preserve += c.check == detail::kPreserveFamily;
    batch += c.check == detail::kBatchFamily;
    epoch += c.check == detail::kEpochFamily;
  }
  EXPECT_EQ(feistel, 2u);
  EXPECT_EQ(roundtrip, 8u);
  EXPECT_EQ(preserve, 8u);
  EXPECT_EQ(batch, 8u);
  EXPECT_EQ(epoch, 8u);
}

TEST(Exhaustive, AllCellsPassAtTinyBounds) {
  const Bounds b = tiny_bounds();
  ThreadPool pool(2);
  const std::vector<CellResult> results = run_cells(list_cells(b), b, pool);
  for (const CellResult& r : results) {
    EXPECT_TRUE(r.pass) << r.cell.id << ": " << (r.cex ? r.cex->message : "");
    EXPECT_GT(r.states, 0u) << r.cell.id;
  }
}

TEST(Exhaustive, FeistelCellEnumeratesAllKeyTuples) {
  Bounds b = tiny_bounds();
  b.min_width = 4;
  b.max_width = 4;
  b.max_stages = 3;
  b.key_budget_bits = 6;
  ThreadPool pool(2);
  const Cell cell = find_cell(list_cells(b), "feistel/w4");
  const CellResult r = run_cell(cell, b, pool);
  EXPECT_TRUE(r.pass);
  // width 4 -> 2 key bits/stage; stages 1..3 fit the 6-bit budget:
  // (4 + 16 + 64) tuples x 16 inputs.
  EXPECT_EQ(r.states, (4u + 16u + 64u) * 16u);
}

struct MutationCase {
  MutationKind kind;
  const char* cell_prefix;
  u64 max_witness;
};

class VerifyMutations : public ::testing::TestWithParam<MutationCase> {};

TEST_P(VerifyMutations, FamilyCatchesItsBugClassAndMinimizes) {
  const MutationCase& mc = GetParam();
  Bounds b = tiny_bounds();
  b.seeds = 1;
  b.max_pattern_len = 4;  // batch-skip needs >= 3 positions
  ThreadPool pool(2);
  const Cell cell = find_cell(list_cells(b), mc.cell_prefix);

  const CellResult clean = run_cell(cell, b, pool);
  ASSERT_TRUE(clean.pass) << (clean.cex ? clean.cex->message : "");

  const CellResult hurt = run_cell(cell, b, pool, MutationSpec{mc.kind, 0});
  ASSERT_FALSE(hurt.pass) << cell.id << " missed mutation " << to_string(mc.kind);
  const Counterexample& cex = *hurt.cex;
  EXPECT_LE(cex.size, mc.max_witness) << cex.message;
  EXPECT_LE(cex.size, cex.original_size);
  EXPECT_TRUE(cex.minimized);

  // The replay string reproduces the violation; with the fault removed
  // the same input passes.
  EXPECT_TRUE(detail::replay_counterexample(cex.replay, b).has_value()) << cex.replay;
  std::string fixed = cex.replay;
  const std::string tag = std::string("mutate=") + std::string(to_string(mc.kind));
  const std::size_t at = fixed.find(tag);
  ASSERT_NE(at, std::string::npos);
  fixed.replace(at, tag.size(), "mutate=none");
  EXPECT_FALSE(detail::replay_counterexample(fixed, b).has_value()) << fixed;
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, VerifyMutations,
    ::testing::Values(MutationCase{MutationKind::kTranslateCollision, "roundtrip/security-rbsg/",
                                   2},
                      MutationCase{MutationKind::kLostCopy, "preserve/sr2/", 16},
                      MutationCase{MutationKind::kPhantomWrite, "preserve/rbsg/", 16},
                      MutationCase{MutationKind::kBatchSkip, "batch/start-gap/", 3},
                      MutationCase{MutationKind::kEpochSkip, "epoch/security-rbsg/", 1}),
    [](const auto& param_info) {
      std::string name(to_string(param_info.param.kind));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(MutationParsing, RoundTripsAndRejects) {
  for (MutationKind k : {MutationKind::kNone, MutationKind::kTranslateCollision,
                         MutationKind::kLostCopy, MutationKind::kPhantomWrite,
                         MutationKind::kBatchSkip, MutationKind::kEpochSkip}) {
    EXPECT_EQ(parse_mutation(to_string(k)), k);
  }
  EXPECT_THROW((void)parse_mutation("bogus"), CheckFailure);
}

TEST(Report, JsonCarriesCellsAndCounterexamples) {
  Bounds b = tiny_bounds();
  b.seeds = 1;
  ThreadPool pool(2);
  const Cell cell = find_cell(list_cells(b), "roundtrip/start-gap/");
  std::vector<CellResult> results;
  results.push_back(run_cell(cell, b, pool));
  results.push_back(run_cell(cell, b, pool, MutationSpec{MutationKind::kTranslateCollision, 0}));
  const std::string doc = report_json(results, b, MutationSpec{});
  EXPECT_NE(doc.find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(doc.find("\"id\":\"roundtrip/start-gap/n16\""), std::string::npos);
  EXPECT_NE(doc.find("\"counterexample\""), std::string::npos);
  EXPECT_NE(doc.find("\"replay\""), std::string::npos);
}

TEST(Report, JsonEscapesControlCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Replay, MalformedStringsThrow) {
  const Bounds b = tiny_bounds();
  EXPECT_THROW((void)detail::replay_counterexample("check=unknown-family;trace=1", b),
               CheckFailure);
  EXPECT_THROW((void)detail::replay_counterexample("no-keys-here", b), CheckFailure);
}

}  // namespace
}  // namespace srbsg::verify
