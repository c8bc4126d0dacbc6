// Tests for the Coalition bitmask type and subset iteration.
#include <gtest/gtest.h>

#include <set>

#include "core/coalition.hpp"
#include "game_reference.hpp"

namespace fedshare::game {
namespace {

using reference::coalition_of;

TEST(Coalition, EmptyAndGrand) {
  EXPECT_TRUE(Coalition().empty());
  EXPECT_EQ(Coalition().size(), 0);
  const Coalition g = Coalition::grand(5);
  EXPECT_EQ(g.size(), 5);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(g.contains(i));
  EXPECT_EQ(Coalition::grand(0), Coalition());
  EXPECT_EQ(Coalition::grand(64).size(), 64);
}

TEST(Coalition, GrandRejectsBadCounts) {
  EXPECT_THROW(Coalition::grand(-1), std::invalid_argument);
  EXPECT_THROW(Coalition::grand(65), std::invalid_argument);
}

TEST(Coalition, SingleAndMembership) {
  const Coalition c = Coalition::single(3);
  EXPECT_EQ(c.size(), 1);
  EXPECT_TRUE(c.contains(3));
  EXPECT_FALSE(c.contains(2));
  EXPECT_THROW(Coalition::single(64), std::out_of_range);
  EXPECT_THROW((void)c.contains(-1), std::out_of_range);
}

TEST(Coalition, WithWithout) {
  Coalition c = coalition_of({0, 2});
  EXPECT_EQ(c.with(2), c);  // idempotent
  EXPECT_EQ(c.with(1).size(), 3);
  EXPECT_EQ(c.without(5), c);
  EXPECT_EQ(c.without(0), Coalition::single(2));
}

TEST(Coalition, SetOperations) {
  const Coalition a = coalition_of({0, 1});
  const Coalition b = coalition_of({1, 2});
  EXPECT_EQ(a.united(b), coalition_of({0, 1, 2}));
  EXPECT_EQ(a.intersected(b), Coalition::single(1));
  EXPECT_EQ(a.minus(b), Coalition::single(0));
  EXPECT_TRUE(Coalition::single(1).is_subset_of(a));
  EXPECT_FALSE(a.is_subset_of(b));
  EXPECT_TRUE(Coalition().is_subset_of(b));
}

TEST(Coalition, MembersAscending) {
  const auto members = coalition_of({5, 1, 9}).members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0], 1);
  EXPECT_EQ(members[1], 5);
  EXPECT_EQ(members[2], 9);
}

TEST(Coalition, ToString) {
  EXPECT_EQ(Coalition().to_string(), "{}");
  EXPECT_EQ(coalition_of({2, 0}).to_string(), "{0,2}");
}

TEST(AllCoalitions, EnumeratesPowerSet) {
  const auto all = all_coalitions(3);
  EXPECT_EQ(all.size(), 8u);
  EXPECT_TRUE(all.front().empty());
  EXPECT_EQ(all.back(), Coalition::grand(3));
  std::set<std::uint64_t> distinct;
  for (const auto& c : all) distinct.insert(c.bits());
  EXPECT_EQ(distinct.size(), 8u);
}

TEST(AllCoalitions, RejectsLargeN) {
  EXPECT_THROW(all_coalitions(25), std::invalid_argument);
  EXPECT_THROW(all_coalitions(-1), std::invalid_argument);
}

TEST(ForEachSubset, VisitsAllSubsetsOnce) {
  const Coalition s = coalition_of({1, 3, 4});
  std::set<std::uint64_t> seen;
  for_each_subset(s, [&](Coalition sub) {
    EXPECT_TRUE(sub.is_subset_of(s));
    EXPECT_TRUE(seen.insert(sub.bits()).second);
  });
  EXPECT_EQ(seen.size(), 8u);  // 2^3
}

TEST(ForEachSubset, EmptySetVisitsOnlyEmpty) {
  int count = 0;
  for_each_subset(Coalition(), [&](Coalition sub) {
    EXPECT_TRUE(sub.empty());
    ++count;
  });
  EXPECT_EQ(count, 1);
}

}  // namespace
}  // namespace fedshare::game
