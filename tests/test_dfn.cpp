#include "wl/dfn.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <unordered_set>

namespace srbsg::wl {
namespace {

void expect_dfn_bijective(const DynamicFeistelOuter& d) {
  std::unordered_set<u64> used;
  for (u64 la = 0; la < d.lines(); ++la) {
    const u64 ia = d.translate(la);
    ASSERT_LE(ia, d.spare_ia());
    ASSERT_TRUE(used.insert(ia).second) << "collision at la " << la;
  }
}

/// Runs `d` through `rounds` more full rounds, following every reported
/// movement on a shadow data array (slot -> LA tag). After each advance
/// it calls validate(), which cross-checks the live map against the
/// isRemap rule, and checks that every LA's translate() points at its
/// data. The shadow is seeded from translations made before the first
/// movement since boot, and in the first round every line not yet moved
/// translates through the isRemap rule.
void walk_rounds_checked(DynamicFeistelOuter& d, u64 rounds) {
  const u64 n = d.lines();
  std::vector<u64> slot_data(n + 1, kInvalidAddr);
  for (u64 la = 0; la < n; ++la) slot_data[d.translate(la)] = la;
  const u64 target = d.rounds_completed() + rounds;
  u64 movements = 0;
  while (d.rounds_completed() < target) {
    const auto mv = d.advance();
    ASSERT_LT(++movements, 2 * n * rounds + 2) << "rounds did not terminate";
    ASSERT_NO_THROW(d.validate()) << "after movement " << movements;
    slot_data[mv.to] = slot_data[mv.from];
    for (u64 la = 0; la < n; ++la) {
      ASSERT_EQ(slot_data[d.translate(la)], la) << "after movement " << movements;
    }
  }
}

TEST(Dfn, InitiallyConsistent) {
  DynamicFeistelOuter d(6, 7, Rng(1));
  EXPECT_EQ(d.lines(), 64u);
  EXPECT_EQ(d.spare_ia(), 64u);
  EXPECT_TRUE(d.round_idle());
  expect_dfn_bijective(d);
}

TEST(Dfn, BijectiveAfterEveryMovement) {
  DynamicFeistelOuter d(5, 3, Rng(2));
  for (int i = 0; i < 500; ++i) {
    d.advance();
    expect_dfn_bijective(d);
  }
}

TEST(Dfn, MovementDescribesDataFlow) {
  // Simulate the data array alongside the DFN and check that following
  // the reported movements keeps translate() pointing at each LA's data.
  DynamicFeistelOuter d(5, 3, Rng(3));
  const u64 n = d.lines();
  std::vector<u64> slot_data(n + 1, kInvalidAddr);  // slot -> la tag
  for (u64 la = 0; la < n; ++la) slot_data[d.translate(la)] = la;

  for (int i = 0; i < 800; ++i) {
    const auto mv = d.advance();
    slot_data[mv.to] = slot_data[mv.from];
    for (u64 la = 0; la < n; ++la) {
      ASSERT_EQ(slot_data[d.translate(la)], la) << "after movement " << i;
    }
  }
}

TEST(Dfn, RoundRemapsEveryLine) {
  DynamicFeistelOuter d(6, 7, Rng(4));
  const u64 n = d.lines();
  // Run exactly one full round.
  EXPECT_TRUE(d.round_idle());
  d.advance();
  EXPECT_FALSE(d.round_idle());
  u64 movements = 1;
  while (!d.round_idle()) {
    d.advance();
    ++movements;
    ASSERT_LT(movements, 3 * n) << "round did not terminate";
  }
  EXPECT_EQ(d.remapped_count(), n);
  // N fills + one eviction per permutation cycle.
  EXPECT_GE(movements, n + 1);
  EXPECT_LE(movements, 2 * n);
  EXPECT_EQ(d.rounds_completed(), 1u);
}

TEST(Dfn, MappingChangesAcrossRounds) {
  DynamicFeistelOuter d(7, 7, Rng(5));
  std::vector<u64> before(d.lines());
  for (u64 la = 0; la < d.lines(); ++la) before[la] = d.translate(la);
  d.advance();
  while (!d.round_idle()) d.advance();
  u64 moved = 0;
  for (u64 la = 0; la < d.lines(); ++la) {
    if (d.translate(la) != before[la]) ++moved;
  }
  EXPECT_GT(moved, d.lines() * 9 / 10);  // fresh keys: almost all move
}

TEST(Dfn, SpareHolderTracked) {
  DynamicFeistelOuter d(4, 3, Rng(6));
  d.advance();  // first movement of a round is always an eviction
  bool any_on_spare = false;
  for (u64 la = 0; la < d.lines(); ++la) {
    if (d.translate(la) == d.spare_ia()) any_on_spare = true;
  }
  EXPECT_TRUE(any_on_spare);
}

TEST(Dfn, MovementsNeverReadTheGap) {
  // A movement's source must currently hold live data: some LA must
  // translate to it at the instant before the movement.
  DynamicFeistelOuter d(5, 5, Rng(7));
  for (int i = 0; i < 400; ++i) {
    std::unordered_set<u64> live;
    for (u64 la = 0; la < d.lines(); ++la) live.insert(d.translate(la));
    const auto mv = d.advance();
    EXPECT_TRUE(live.count(mv.from)) << "movement " << i << " read a dead slot";
  }
}

class DfnStages : public ::testing::TestWithParam<u32> {};

TEST_P(DfnStages, ThreeRoundsStayConsistent) {
  DynamicFeistelOuter d(6, GetParam(), Rng(40 + GetParam()));
  walk_rounds_checked(d, 3);
  expect_dfn_bijective(d);
}

INSTANTIATE_TEST_SUITE_P(Stages, DfnStages, ::testing::Values(1u, 3u, 6u, 7u, 12u, 20u));

// The live map at the odd width 11 (the repository benchmark's; an
// odd-width Feistel network cycle-walks) under both permutation families,
// and at width 6 under the table family (DfnStages covers width 6 under
// the Feistel family).
struct DfnShape {
  u32 width;
  OuterPrpKind kind;
};

std::string shape_name(const DfnShape& shape) {
  return "w" + std::to_string(shape.width) +
         (shape.kind == OuterPrpKind::kTablePrp ? "_table" : "_feistel");
}

// Test names print the shape, not the struct's bytes (padding included).
void PrintTo(const DfnShape& shape, std::ostream* os) { *os << shape_name(shape); }

class DfnLiveMap : public ::testing::TestWithParam<DfnShape> {};

TEST_P(DfnLiveMap, ThreeRoundsFollowTheDataFlow) {
  const DfnShape shape = GetParam();
  DynamicFeistelOuter d(shape.width, 7, Rng(70 + shape.width), shape.kind);
  walk_rounds_checked(d, 3);
  expect_dfn_bijective(d);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DfnLiveMap,
    ::testing::Values(DfnShape{6, OuterPrpKind::kTablePrp},
                      DfnShape{11, OuterPrpKind::kCubingFeistel},
                      DfnShape{11, OuterPrpKind::kTablePrp}),
    [](const ::testing::TestParamInfo<DfnShape>& param_info) {
      return shape_name(param_info.param);
    });

// The walk itself is pinned, not only its consistency: an FNV-1a digest
// of every advance()'s (from, to) over three rounds, at even and odd
// widths, equals the value recorded before the DEC_Kc table existed.
// Round 1 evaluates the network directly; rounds 2 and 3 read the table.
struct DfnWalk {
  u32 width;
  OuterPrpKind kind;
  u32 stages;
  u64 digest;
};

std::string walk_name(const DfnWalk& walk) {
  return shape_name(DfnShape{walk.width, walk.kind}) + "_s" + std::to_string(walk.stages);
}

void PrintTo(const DfnWalk& walk, std::ostream* os) { *os << walk_name(walk); }

u64 fnv1a(u64 h, u64 v) {
  for (u32 byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xFF;
    h *= 0x100000001B3;
  }
  return h;
}

class DfnWalkDigest : public ::testing::TestWithParam<DfnWalk> {};

TEST_P(DfnWalkDigest, ThreeRoundsMatchTheRecordedWalk) {
  const DfnWalk walk = GetParam();
  DynamicFeistelOuter d(walk.width, walk.stages, Rng(0xD16E57 + walk.width), walk.kind);
  u64 h = 0xCBF29CE484222325;
  u64 movements = 0;
  while (d.rounds_completed() < 3) {
    // A round is N + (#cycles) <= 2N movements.
    ASSERT_LT(movements++, 3 * 2 * d.lines()) << "rounds did not terminate";
    const auto mv = d.advance();
    h = fnv1a(fnv1a(h, mv.from), mv.to);
  }
  ASSERT_NO_THROW(d.validate());
  EXPECT_EQ(h, walk.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Walks, DfnWalkDigest,
    ::testing::Values(DfnWalk{6, OuterPrpKind::kCubingFeistel, 3, 0x60ac4dd8cf0518e5},
                      DfnWalk{6, OuterPrpKind::kCubingFeistel, 7, 0x8385adcd435260a5},
                      DfnWalk{6, OuterPrpKind::kCubingFeistel, 20, 0x547d3249fd06b365},
                      DfnWalk{6, OuterPrpKind::kTablePrp, 1, 0xa25464174e879325},
                      DfnWalk{10, OuterPrpKind::kCubingFeistel, 3, 0xa831944336df22c9},
                      DfnWalk{10, OuterPrpKind::kCubingFeistel, 7, 0x4bb05b47a1dbf6fd},
                      DfnWalk{10, OuterPrpKind::kCubingFeistel, 20, 0xd68d4a13aa51b8c5},
                      DfnWalk{10, OuterPrpKind::kTablePrp, 1, 0x4e95381fe3f866d5},
                      DfnWalk{11, OuterPrpKind::kCubingFeistel, 3, 0x477fd9f165d3cd49},
                      DfnWalk{11, OuterPrpKind::kCubingFeistel, 7, 0xdd889c28c0864fcd},
                      DfnWalk{11, OuterPrpKind::kCubingFeistel, 20, 0xb254460115df57a5},
                      DfnWalk{11, OuterPrpKind::kTablePrp, 1, 0x00c8f4268d7e88f9},
                      DfnWalk{12, OuterPrpKind::kCubingFeistel, 3, 0x45375472ebb7a825},
                      DfnWalk{12, OuterPrpKind::kCubingFeistel, 7, 0xc71017bc6382b71d},
                      DfnWalk{12, OuterPrpKind::kCubingFeistel, 20, 0xc999762dddbd1459},
                      DfnWalk{12, OuterPrpKind::kTablePrp, 1, 0x1b16836f78000731}),
    [](const ::testing::TestParamInfo<DfnWalk>& param_info) {
      return walk_name(param_info.param);
    });

TEST(DfnTablePrp, BijectiveThroughRounds) {
  DynamicFeistelOuter d(6, 1, Rng(60), OuterPrpKind::kTablePrp);
  EXPECT_EQ(d.prp_kind(), OuterPrpKind::kTablePrp);
  for (int i = 0; i < 400; ++i) {
    d.advance();
    expect_dfn_bijective(d);
  }
}

TEST(DfnTablePrp, DataFlowConsistent) {
  DynamicFeistelOuter d(5, 1, Rng(61), OuterPrpKind::kTablePrp);
  const u64 n = d.lines();
  std::vector<u64> slot_data(n + 1, kInvalidAddr);
  for (u64 la = 0; la < n; ++la) slot_data[d.translate(la)] = la;
  for (int i = 0; i < 600; ++i) {
    const auto mv = d.advance();
    slot_data[mv.to] = slot_data[mv.from];
    for (u64 la = 0; la < n; ++la) {
      ASSERT_EQ(slot_data[d.translate(la)], la) << "movement " << i;
    }
  }
}

}  // namespace
}  // namespace srbsg::wl
