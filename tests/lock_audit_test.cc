// LockAudit: the debug lock-order / wait-for-graph validator.
//
// Three layers of coverage: (1) constructed wait-for graphs — injected 2-
// and 3-transaction cycles must be detected at the closing edge and
// rendered with every participant's held keys; (2) false-positive checks —
// disjoint key sets and order-consistent workloads must stay silent; (3) a
// seed-randomized contended world under the default per_key config with
// the audit armed, asserting the engine's no-wait locking never produces a
// wait-for cycle (the gate ROADMAP item 1's blocking waits must keep
// green).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "harness/agents.h"
#include "harness/world.h"
#include "resource/bank.h"
#include "resource/lock_audit.h"
#include "resource/resource_manager.h"
#include "util/rng.h"

namespace mar {
namespace {

using agent::AgentOutcome;
using agent::Itinerary;
using harness::TestWorld;
using resource::LockAudit;
using resource::LockAuditError;

LockAudit::Config lenient() {
  LockAudit::Config c;
  c.fail_on_cycle = false;
  c.fail_on_inversion = false;
  return c;
}

TEST(LockAuditTest, TwoTxCycleDetectedAtClosingEdge) {
  LockAudit audit(lenient());
  const TxId a(1), b(2);
  audit.on_acquire(a, "bank", "accounts/alice");
  audit.on_acquire(b, "bank", "accounts/bob");

  // a would block on b: no cycle yet.
  EXPECT_FALSE(audit.on_conflict(a, b).has_value());
  // b would block on a: closes b -> a -> b.
  const auto cycle = audit.on_conflict(b, a);
  ASSERT_TRUE(cycle.has_value());
  // Waiter-first, closed back on the waiter: b -> a -> b.
  EXPECT_EQ(cycle->size(), 3u);
  EXPECT_EQ(cycle->front(), b);
  EXPECT_EQ(cycle->back(), b);
  EXPECT_EQ(audit.stats().wfg_cycles, 1u);

  // The rendered cycle names both transactions and their held keys.
  const auto text = audit.describe_cycle(*cycle);
  EXPECT_NE(text.find("wait-for-graph cycle"), std::string::npos);
  EXPECT_NE(text.find("tx 1"), std::string::npos);
  EXPECT_NE(text.find("tx 2"), std::string::npos);
  EXPECT_NE(text.find("bank:accounts/alice"), std::string::npos);
  EXPECT_NE(text.find("bank:accounts/bob"), std::string::npos);
}

TEST(LockAuditTest, ThreeTxCycleDetected) {
  LockAudit audit(lenient());
  const TxId a(1), b(2), c(3);
  audit.on_acquire(a, "bank", "accounts/a");
  audit.on_acquire(b, "shop", "items/x");
  audit.on_acquire(c, "exchange", "rates/EUR/USD");

  EXPECT_FALSE(audit.on_conflict(a, b).has_value());
  EXPECT_FALSE(audit.on_conflict(b, c).has_value());
  const auto cycle = audit.on_conflict(c, a);
  ASSERT_TRUE(cycle.has_value());
  // Waiter-first, closed back on the waiter: c -> a -> b -> c.
  EXPECT_EQ(cycle->size(), 4u);
  EXPECT_EQ((*cycle)[0], c);
  EXPECT_EQ((*cycle)[1], a);
  EXPECT_EQ((*cycle)[2], b);
  EXPECT_EQ((*cycle)[3], c);
  EXPECT_EQ(audit.stats().wfg_cycles, 1u);
}

TEST(LockAuditTest, DefaultConfigHardFailsOnCycle) {
  LockAudit audit;  // default: fail_on_cycle
  const TxId a(7), b(9);
  audit.on_acquire(a, "bank", "accounts/alice");
  audit.on_acquire(b, "bank", "accounts/bob");
  audit.on_conflict(a, b);
  try {
    audit.on_conflict(b, a);
    FAIL() << "cycle did not hard-fail";
  } catch (const LockAuditError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("wait-for-graph cycle"), std::string::npos);
    EXPECT_NE(what.find("tx 7"), std::string::npos);
    EXPECT_NE(what.find("tx 9"), std::string::npos);
  }
}

TEST(LockAuditTest, ReleaseBreaksWaitEdgesBothDirections) {
  LockAudit audit(lenient());
  const TxId a(1), b(2);
  audit.on_acquire(a, "bank", "accounts/alice");
  audit.on_acquire(b, "bank", "accounts/bob");
  audit.on_conflict(a, b);
  // a aborts (the engine's no-wait response) — its would-block edge dies
  // with it, so the reverse conflict closes nothing.
  audit.on_release(a);
  EXPECT_FALSE(audit.on_conflict(b, a).has_value());
  EXPECT_EQ(audit.stats().wfg_cycles, 0u);
  EXPECT_TRUE(audit.held(a).empty());
}

TEST(LockAuditTest, DisjointKeySetsRaiseNothing) {
  LockAudit audit(lenient());
  const TxId a(1), b(2);
  // Two transactions over disjoint keys, acquired in "opposite" orders —
  // no shared key, no order edge between the groups, nothing to invert.
  audit.on_acquire(a, "bank", "accounts/a1");
  audit.on_acquire(a, "bank", "accounts/a2");
  audit.on_acquire(b, "shop", "items/x2");
  audit.on_acquire(b, "shop", "items/x1");
  EXPECT_EQ(audit.stats().order_inversions, 0u);
  EXPECT_EQ(audit.stats().wfg_cycles, 0u);
  EXPECT_FALSE(audit.first_inversion().has_value());
}

TEST(LockAuditTest, OrderInversionDetectedAndStrictModeThrows) {
  {
    LockAudit audit(lenient());
    const TxId a(1), b(2);
    // a takes alice then bob; b takes bob then alice: opposite orders on
    // the same pair — the classic deadlock recipe under blocking waits.
    audit.on_acquire(a, "bank", "accounts/alice");
    audit.on_acquire(a, "bank", "accounts/bob");
    audit.on_release(a);
    audit.on_acquire(b, "bank", "accounts/bob");
    const auto witness = audit.on_acquire(b, "bank", "accounts/alice");
    ASSERT_TRUE(witness.has_value());
    EXPECT_NE(witness->find("lock-order inversion"), std::string::npos);
    EXPECT_EQ(audit.stats().order_inversions, 1u);
    ASSERT_TRUE(audit.first_inversion().has_value());
  }
  {
    LockAudit::Config strict;
    strict.fail_on_inversion = true;
    LockAudit audit(strict);
    const TxId a(1), b(2);
    audit.on_acquire(a, "bank", "accounts/alice");
    audit.on_acquire(a, "bank", "accounts/bob");
    audit.on_release(a);
    audit.on_acquire(b, "bank", "accounts/bob");
    EXPECT_THROW(audit.on_acquire(b, "bank", "accounts/alice"),
                 LockAuditError);
  }
}

TEST(LockAuditTest, ConsistentOrderIsNotAnInversion) {
  LockAudit audit(lenient());
  // Many transactions acquiring the same keys in ONE global order.
  for (std::uint64_t t = 1; t <= 8; ++t) {
    const TxId tx(t);
    audit.on_acquire(tx, "bank", "accounts/alice");
    audit.on_acquire(tx, "bank", "accounts/bob");
    audit.on_acquire(tx, "shop", "items/x");
    audit.on_release(tx);
  }
  EXPECT_EQ(audit.stats().order_inversions, 0u);
}

TEST(LockAuditTest, ResetClearsGraphsButKeepsStats) {
  LockAudit audit(lenient());
  const TxId a(1), b(2);
  audit.on_acquire(a, "bank", "accounts/alice");
  audit.on_acquire(b, "bank", "accounts/bob");
  audit.on_conflict(a, b);
  audit.on_conflict(b, a);
  EXPECT_EQ(audit.stats().wfg_cycles, 1u);
  audit.reset();  // crash: lock state is volatile
  EXPECT_TRUE(audit.held(a).empty());
  // Graphs are gone — the same edges close no cycle on a fresh epoch
  // until both are re-reported...
  audit.on_acquire(a, "bank", "accounts/alice");
  audit.on_acquire(b, "bank", "accounts/bob");
  EXPECT_FALSE(audit.on_conflict(a, b).has_value());
  // ...but cumulative stats survived the crash.
  EXPECT_EQ(audit.stats().wfg_cycles, 1u);
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

TEST(LockAuditTest, ResourceManagerMirrorsGrantsAndConflicts) {
  storage::StableStorage stable;
  resource::ResourceManager rm(stable);
  rm.enable_lock_audit(lenient());
  rm.add_resource("bank", std::make_unique<resource::Bank>());
  serial::Value state = rm.committed_state("bank");
  for (const auto* acct : {"a1", "a2"}) {
    serial::Value acc = serial::Value::empty_map();
    acc.set("balance", std::int64_t{100});
    acc.set("overdraft", false);
    state.as_map().at("accounts").set(acct, std::move(acc));
  }
  rm.poke_state("bank", std::move(state));

  auto deposit = [&](TxId tx, const std::string& acct) {
    serial::Value p = serial::Value::empty_map();
    p.set("account", serial::Value(acct));
    p.set("amount", std::int64_t{10});
    return rm.invoke(tx, "bank", "deposit", p);
  };

  const TxId t1(101), t2(102);
  ASSERT_TRUE(deposit(t1, "a1").is_ok());
  ASSERT_TRUE(deposit(t2, "a2").is_ok());
  const auto* audit = rm.lock_audit();
  ASSERT_NE(audit, nullptr);
  EXPECT_EQ(audit->held(t1).count("bank:accounts/a1"), 1u);
  EXPECT_EQ(audit->held(t2).count("bank:accounts/a2"), 1u);

  // t2 collides with t1's account: the would-block edge is recorded.
  const auto before = audit->stats().wait_edges;
  EXPECT_FALSE(deposit(t2, "a1").is_ok());
  EXPECT_EQ(audit->stats().wait_edges, before + 1);

  // Commit/abort release the audit's view of the held sets.
  rm.prepare(t1);
  rm.commit(t1);
  rm.abort(t2);
  EXPECT_TRUE(audit->held(t1).empty());
  EXPECT_TRUE(audit->held(t2).empty());
  EXPECT_EQ(audit->stats().wfg_cycles, 0u);
}

/// Contended randomized fleet under the default per_key config with the
/// audit armed: zipf-skewed bank_hot draws across 4 slots produce real
/// lock conflicts, and the no-wait engine must never close a wait-for
/// cycle — on any seed.
struct AuditRun {
  int done = 0;
  std::uint64_t acquires = 0;
  std::uint64_t wait_edges = 0;
  std::uint64_t cycles = 0;
};

AuditRun run_contended(std::uint64_t seed) {
  constexpr int kFleet = 8;
  constexpr int kSteps = 6;
  constexpr int kAccounts = 4;  // few accounts -> hot keys

  agent::PlatformConfig cfg;  // per_key + group commit: today's defaults
  cfg.node_concurrency = 4;
  cfg.lock_audit = true;  // force on regardless of build type
  TestWorld w(cfg, /*node_count=*/1, seed);
  harness::register_workload(w.platform);
  for (int a = 0; a < kAccounts; ++a) {
    w.open_account(1, "a" + std::to_string(a), 0);
  }

  Rng rng(seed * 7919 + 17);
  std::vector<AgentId> ids;
  for (int a = 0; a < kFleet; ++a) {
    auto ag = std::make_unique<harness::WorkloadAgent>();
    Itinerary tour;
    for (int s = 0; s < kSteps; ++s) tour.step("bank_hot", TestWorld::n(1));
    Itinerary main_it;
    main_it.sub(std::move(tour));
    ag->itinerary() = std::move(main_it);
    // hot_accounts entries are integer indices: bank_hot deposits into
    // "a<idx>". Skewed draws: half the steps hit account 0.
    serial::Value accounts = serial::Value::empty_list();
    for (int s = 0; s < kSteps; ++s) {
      const auto acct = rng.next_bool(0.5)
                            ? std::int64_t{0}
                            : static_cast<std::int64_t>(
                                  rng.next_below(kAccounts));
      accounts.push_back(serial::Value(acct));
    }
    ag->set_config_value("hot_accounts", std::move(accounts));
    auto r = w.platform.launch(std::move(ag));
    EXPECT_TRUE(r.is_ok());
    ids.push_back(r.value());
  }

  AuditRun run;
  EXPECT_TRUE(w.platform.run_until_all_finished(ids));
  for (const auto id : ids) {
    if (w.platform.outcome(id).state == AgentOutcome::State::done) ++run.done;
  }
  const auto* audit = w.platform.node(TestWorld::n(1)).resources().lock_audit();
  EXPECT_NE(audit, nullptr);
  if (audit != nullptr) {
    run.acquires = audit->stats().acquires;
    run.wait_edges = audit->stats().wait_edges;
    run.cycles = audit->stats().wfg_cycles;
  }
  return run;
}

TEST(LockAuditTest, RandomizedContendedRunsReportNoCycles) {
  for (const std::uint64_t seed : {11ull, 23ull, 47ull}) {
    const auto run = run_contended(seed);
    EXPECT_EQ(run.done, 8) << "seed " << seed;
    EXPECT_GT(run.acquires, 0u) << "seed " << seed;
    // The skewed draws must actually contend, or the no-cycle assertion
    // is vacuous.
    EXPECT_GT(run.wait_edges, 0u) << "seed " << seed;
    EXPECT_EQ(run.cycles, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mar
