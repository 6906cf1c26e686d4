// Unit tests for the deployment-constraint framework.

#include "core/constraints.h"

#include <gtest/gtest.h>

#include <vector>

namespace vmcw {
namespace {

/// An affinity group for allows_group, which takes a span.
using Group = std::vector<std::size_t>;

TEST(ConstraintSet, EmptyByDefault) {
  const ConstraintSet cs(4);
  EXPECT_TRUE(cs.empty());
  EXPECT_TRUE(cs.structurally_feasible());
  EXPECT_EQ(cs.affinity_groups().size(), 4u);  // all singletons
}

TEST(ConstraintSet, AffinityGroupsAreTransitive) {
  ConstraintSet cs(6);
  cs.add_affinity(0, 1);
  cs.add_affinity(1, 2);
  const auto groups = cs.affinity_groups();
  // {0,1,2}, {3}, {4}, {5}
  ASSERT_EQ(groups.size(), 4u);
  EXPECT_EQ(groups[0], (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ConstraintSet, AffinityGrowsVmCount) {
  ConstraintSet cs;  // empty
  cs.add_affinity(2, 5);
  EXPECT_GE(cs.vm_count(), 6u);
}

TEST(ConstraintSet, PinnedHostLookup) {
  ConstraintSet cs(3);
  cs.pin(1, 7);
  EXPECT_EQ(cs.pinned_host(1), 7);
  EXPECT_EQ(cs.pinned_host(0), Placement::kUnplaced);
}

TEST(ConstraintSet, AllowsRespectsPin) {
  ConstraintSet cs(2);
  cs.pin(0, 3);
  Placement p(2);
  EXPECT_TRUE(cs.allows(0, 3, p));
  EXPECT_FALSE(cs.allows(0, 4, p));
  EXPECT_TRUE(cs.allows(1, 4, p));
}

TEST(ConstraintSet, AllowsRespectsForbid) {
  ConstraintSet cs(2);
  cs.forbid(0, 2);
  Placement p(2);
  EXPECT_FALSE(cs.allows(0, 2, p));
  EXPECT_TRUE(cs.allows(0, 1, p));
}

TEST(ConstraintSet, AllowsRespectsAntiAffinity) {
  ConstraintSet cs(3);
  cs.add_anti_affinity(0, 1);
  Placement p(3);
  p.assign(1, 5);
  EXPECT_FALSE(cs.allows(0, 5, p));
  EXPECT_TRUE(cs.allows(0, 4, p));
  EXPECT_TRUE(cs.allows(2, 5, p));
}

TEST(ConstraintSet, AllowsGroupChecksAllMembers) {
  ConstraintSet cs(4);
  cs.add_anti_affinity(1, 3);
  Placement p(4);
  p.assign(3, 0);
  EXPECT_FALSE(cs.allows_group(Group{0, 1}, 0, p));
  EXPECT_TRUE(cs.allows_group(Group{0, 2}, 0, p));
}

TEST(ConstraintSet, AllowsGroupRejectsInternalAntiAffinity) {
  ConstraintSet cs(3);
  cs.add_anti_affinity(0, 1);
  Placement p(3);
  EXPECT_FALSE(cs.allows_group(Group{0, 1}, 2, p));
}

TEST(ConstraintSet, SatisfiedByCompletePlacement) {
  ConstraintSet cs(4);
  cs.add_affinity(0, 1);
  cs.add_anti_affinity(2, 3);
  cs.pin(2, 1);

  Placement good(4);
  good.assign(0, 0);
  good.assign(1, 0);
  good.assign(2, 1);
  good.assign(3, 2);
  EXPECT_TRUE(cs.satisfied_by(good));

  Placement split_affinity = good;
  split_affinity.assign(1, 2);
  EXPECT_FALSE(cs.satisfied_by(split_affinity));

  Placement broken_anti = good;
  broken_anti.assign(3, 1);
  EXPECT_FALSE(cs.satisfied_by(broken_anti));

  Placement wrong_pin = good;
  wrong_pin.assign(2, 0);
  EXPECT_FALSE(cs.satisfied_by(wrong_pin));

  Placement incomplete = good;
  incomplete.unassign(0);
  EXPECT_FALSE(cs.satisfied_by(incomplete));
}

TEST(ConstraintSet, StructurallyInfeasibleCases) {
  {
    ConstraintSet cs(3);
    cs.add_affinity(0, 1);
    cs.add_anti_affinity(0, 1);
    EXPECT_FALSE(cs.structurally_feasible());
  }
  {
    ConstraintSet cs(3);
    cs.add_affinity(0, 1);
    cs.pin(0, 1);
    cs.pin(1, 2);
    EXPECT_FALSE(cs.structurally_feasible());
  }
  {
    ConstraintSet cs(3);
    cs.pin(0, 1);
    cs.forbid(0, 1);
    EXPECT_FALSE(cs.structurally_feasible());
  }
  {
    ConstraintSet cs(3);
    cs.add_affinity(0, 1);
    cs.add_anti_affinity(1, 2);
    cs.pin(0, 4);
    EXPECT_TRUE(cs.structurally_feasible());
  }
}

// Helper: hosts 0..5 in domains {0,0,1,1,2,2}; hosts past the table are
// unknown unless a tail is set.
DomainLookup paired_domains() {
  DomainLookup lookup;
  lookup.table = {0, 0, 1, 1, 2, 2};
  return lookup;
}

TEST(DomainLookup, TableTailAndOffset) {
  DomainLookup lookup = paired_domains();
  EXPECT_EQ(lookup.domain_of(0), 0);
  EXPECT_EQ(lookup.domain_of(5), 2);
  EXPECT_EQ(lookup.domain_of(6), -1);  // past the table, no tail
  EXPECT_EQ(lookup.domain_of(-1), -1);
  lookup.tail_base = 6;
  lookup.tail_first_domain = 3;
  lookup.tail_hosts_per_domain = 2;
  EXPECT_EQ(lookup.domain_of(6), 3);
  EXPECT_EQ(lookup.domain_of(7), 3);
  EXPECT_EQ(lookup.domain_of(8), 4);
  lookup.host_offset = 4;  // sub-problem host 0 is fleet host 4
  EXPECT_EQ(lookup.domain_of(0), 2);
  EXPECT_EQ(lookup.domain_of(2), 3);
}

TEST(ConstraintSet, DomainSpreadBlocksOverfilledDomain) {
  ConstraintSet cs;
  cs.add_domain_spread({0, 1, 2}, paired_domains(), 1);
  EXPECT_FALSE(cs.empty());
  Placement p(3);
  p.assign(0, 0);  // domain 0
  // Host 1 shares domain 0: blocked. Host 2 is domain 1: fine.
  EXPECT_FALSE(cs.allows(1, 1, p));
  EXPECT_TRUE(cs.allows(1, 2, p));
  // A VM outside the rule is unconstrained.
  EXPECT_TRUE(cs.allows(5, 1, p));
  p.assign(1, 2);
  // Both domains 0 and 1 now hold one member; domain 2 is the only slot.
  EXPECT_FALSE(cs.allows(2, 1, p));
  EXPECT_FALSE(cs.allows(2, 3, p));
  EXPECT_TRUE(cs.allows(2, 4, p));
  // Hosts with unknown domain are never constrained.
  EXPECT_TRUE(cs.allows(2, 9, p));
}

TEST(ConstraintSet, DomainSpreadCountsGroupsAsOne) {
  // An affinity group landing together counts every member against the
  // domain cap at once.
  ConstraintSet cs;
  cs.add_domain_spread({0, 1, 2}, paired_domains(), 2);
  Placement p(3);
  // Group {0,1} onto host 0 (domain 0, cap 2): allowed.
  EXPECT_TRUE(cs.allows_group(Group{0, 1}, 0, p));
  // Group {0,1,2} would put 3 members into domain 0: blocked.
  EXPECT_FALSE(cs.allows_group(Group{0, 1, 2}, 0, p));
  p.assign(0, 1);  // domain 0 holds one member already
  EXPECT_FALSE(cs.allows_group(Group{1, 2}, 0, p));
  EXPECT_TRUE(cs.allows_group(Group{1, 2}, 2, p));
}

TEST(ConstraintSet, DomainSpreadSatisfiedBy) {
  ConstraintSet cs;
  cs.add_domain_spread({0, 1, 2}, paired_domains(), 1);
  Placement ok(3);
  ok.assign(0, 0);
  ok.assign(1, 2);
  ok.assign(2, 4);
  EXPECT_TRUE(cs.satisfied_by(ok));
  Placement bad = ok;
  bad.assign(2, 1);  // domains {0, 1, 0}: cap 1 violated
  EXPECT_FALSE(cs.satisfied_by(bad));
}

TEST(ConstraintSet, DomainSpreadPreplacedBaselineCountsTowardTheCap) {
  // Members committed outside the sub-problem (hybrid's other side) are a
  // per-domain baseline: the cap binds jointly, not per side.
  ConstraintSet cs;
  cs.add_domain_spread({0, 1, 2}, paired_domains(), 2,
                       /*preplaced=*/{{0, 2}, {1, 1}});
  Placement p(3);
  // Domain 0 already holds 2 members elsewhere: hosts 0-1 are full.
  EXPECT_FALSE(cs.allows(0, 0, p));
  EXPECT_FALSE(cs.allows(0, 1, p));
  // Domain 1 holds 1 of 2: one local member fits, a pair does not.
  EXPECT_TRUE(cs.allows(0, 2, p));
  EXPECT_FALSE(cs.allows_group(Group{0, 1}, 2, p));
  // Domain 2 has no baseline: a pair fits, then it is full.
  EXPECT_TRUE(cs.allows_group(Group{0, 1}, 4, p));
  p.assign(0, 4);
  p.assign(1, 5);
  EXPECT_FALSE(cs.allows(2, 4, p));
  // Validation applies the same joint arithmetic.
  Placement full(3);
  full.assign(0, 2);  // domain 1: 1 + 1 = cap
  full.assign(1, 4);
  full.assign(2, 5);  // domain 2: 2 = cap
  EXPECT_TRUE(cs.satisfied_by(full));
  Placement over = full;
  over.assign(0, 1);  // domain 0: 2 preplaced + 1 > cap
  EXPECT_FALSE(cs.satisfied_by(over));
}

TEST(ConstraintSet, DomainSpreadStructuralFeasibility) {
  // Pins forcing 2 members into one domain under cap 1 are structurally
  // infeasible regardless of capacity.
  ConstraintSet cs;
  cs.add_domain_spread({0, 1}, paired_domains(), 1);
  cs.pin(0, 0);
  cs.pin(1, 1);  // same domain as host 0
  EXPECT_FALSE(cs.structurally_feasible());
  ConstraintSet ok;
  ok.add_domain_spread({0, 1}, paired_domains(), 1);
  ok.pin(0, 0);
  ok.pin(1, 2);
  EXPECT_TRUE(ok.structurally_feasible());
}

TEST(Placement, Accounting) {
  Placement p(5);
  EXPECT_EQ(p.placed_count(), 0u);
  EXPECT_EQ(p.host_index_bound(), 0u);
  p.assign(0, 2);
  p.assign(1, 2);
  p.assign(2, 4);
  EXPECT_EQ(p.placed_count(), 3u);
  EXPECT_EQ(p.host_index_bound(), 5u);
  EXPECT_EQ(p.active_host_count(), 2u);  // hosts 2 and 4
  const auto by_host = p.vms_by_host();
  ASSERT_EQ(by_host.size(), 5u);
  EXPECT_EQ(by_host[2], (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(by_host[3].empty());
}

TEST(Placement, MigrationsBetween) {
  Placement a(4), b(4);
  a.assign(0, 0);
  a.assign(1, 1);
  a.assign(2, 2);
  b.assign(0, 0);   // unchanged
  b.assign(1, 2);   // moved
  b.assign(3, 1);   // newly placed: not a migration
  // vm 2 unplaced in b: not a migration
  EXPECT_EQ(Placement::migrations_between(a, b), 1u);
}

}  // namespace
}  // namespace vmcw
