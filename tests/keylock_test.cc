// Per-key resource locking, key-granular overlays, and the group-commit
// pipeline (PlatformConfig::group_commit_window).
//
// Covers: disjoint key-sets proceeding concurrently where one shared key
// conflicts; shared read locks; whole-instance fallback; write-back
// correctness at key granularity (including deletes and covering-slot
// folds); per-key prepared-overlay crash recovery; the lock-leak
// regression (aborting mid-transaction with overlapping key-sets must drop
// every lock AND every staged slice, across crash-epoch invalidation); a
// randomized linearizability-style equivalence of concurrent vs serial
// execution; and group commit batching syncs with crash atomicity.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "harness/agents.h"
#include "harness/world.h"
#include "resource/bank.h"
#include "resource/directory.h"
#include "resource/exchange.h"
#include "resource/mailbox.h"
#include "resource/mint.h"
#include "resource/resource_manager.h"
#include "storage/stable_storage.h"
#include "util/rng.h"

namespace mar {
namespace {

using agent::AgentOutcome;
using agent::Itinerary;
using harness::TestWorld;
using harness::WorkloadAgent;
using resource::Bank;
using resource::KeySet;
using resource::ResourceManager;
using serial::Value;

Value params(std::initializer_list<std::pair<std::string, Value>> kv) {
  Value v = Value::empty_map();
  for (auto& [k, val] : kv) v.set(k, val);
  return v;
}

// --------------------------------------------------------------------------
// ResourceManager unit tests
// --------------------------------------------------------------------------

/// A keyed toy resource exercising sub-level keys, slot-level (covering)
/// keys, deletes and read-only declarations against one "entries" map.
class KvResource final : public resource::Resource {
 public:
  [[nodiscard]] std::string type_name() const override { return "kv"; }
  [[nodiscard]] Value initial_state() const override {
    Value state = Value::empty_map();
    state.set("entries", Value::empty_map());
    state.set("meta", std::int64_t{0});
    return state;
  }
  [[nodiscard]] KeySet key_set(std::string_view op,
                               const Value& params) const override {
    if (op == "put" || op == "del") {
      return KeySet().write("entries/" + params.at("key").as_string());
    }
    if (op == "get") {
      return KeySet().read("entries/" + params.at("key").as_string());
    }
    if (op == "clear") return KeySet().write("entries");
    if (op == "bump_meta") return KeySet().write("meta");
    return KeySet::whole();
  }
  Result<Value> invoke(std::string_view op, const Value& p,
                       Value& state) override {
    Value& entries = state.as_map().at("entries");
    if (op == "put") {
      entries.set(p.at("key").as_string(), p.at("value"));
      return Value::empty_map();
    }
    if (op == "get") {
      const auto& key = p.at("key").as_string();
      if (!entries.has(key)) return Status(Errc::not_found, "no " + key);
      Value r = Value::empty_map();
      r.set("value", entries.at(key));
      return r;
    }
    if (op == "del") {
      entries.erase(p.at("key").as_string());
      return Value::empty_map();
    }
    if (op == "clear") {
      entries = Value::empty_map();
      return Value::empty_map();
    }
    if (op == "bump_meta") {
      state.set("meta", state.at("meta").as_int() + 1);
      return Value::empty_map();
    }
    return Status(Errc::rejected, "kv: unknown op");
  }
};

struct PerKeyFixture : ::testing::Test {
  storage::StableStorage stable;
  ResourceManager rm{stable};

  void SetUp() override {
    rm.add_resource("bank", std::make_unique<Bank>());
    rm.add_resource("kv", std::make_unique<KvResource>());
    Value state = rm.committed_state("bank");
    for (const char* a : {"a1", "a2"}) {
      Value acc = Value::empty_map();
      acc.set("balance", std::int64_t{100});
      acc.set("overdraft", false);
      state.as_map().at("accounts").set(a, std::move(acc));
    }
    rm.poke_state("bank", std::move(state));
  }
  Result<Value> deposit(TxId tx, const std::string& acct, std::int64_t amt) {
    return rm.invoke(tx, "bank", "deposit",
                     params({{"account", Value(acct)}, {"amount", Value(amt)}}));
  }
};

TEST_F(PerKeyFixture, DisjointKeysDoNotConflict) {
  const TxId t1(1), t2(2);
  ASSERT_TRUE(deposit(t1, "a1", 10).is_ok());
  // Instance locking would abort this; per-key locking must not.
  ASSERT_TRUE(deposit(t2, "a2", 20).is_ok());
  ASSERT_TRUE(rm.prepare(t1));
  rm.commit(t1);
  ASSERT_TRUE(rm.prepare(t2));
  rm.commit(t2);
  EXPECT_EQ(Bank::balance_in(rm.committed_state("bank"), "a1"), 110);
  EXPECT_EQ(Bank::balance_in(rm.committed_state("bank"), "a2"), 120);
  EXPECT_FALSE(rm.locked("bank"));
}

TEST_F(PerKeyFixture, OverlappingKeysConflict) {
  const TxId t1(1), t2(2);
  ASSERT_TRUE(deposit(t1, "a1", 10).is_ok());
  auto r = deposit(t2, "a1", 20);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::lock_conflict);
  // Uncommitted first writer stays invisible.
  EXPECT_EQ(Bank::balance_in(rm.committed_state("bank"), "a1"), 100);
}

TEST_F(PerKeyFixture, ReadersShareWritersExclude) {
  const TxId t1(1), t2(2), t3(3);
  auto balance = [&](TxId tx) {
    return rm.invoke(tx, "bank", "balance",
                     params({{"account", Value("a1")}}));
  };
  ASSERT_TRUE(balance(t1).is_ok());
  ASSERT_TRUE(balance(t2).is_ok());  // shared read lock
  auto w = deposit(t3, "a1", 5);
  ASSERT_FALSE(w.is_ok());  // writer excluded by readers
  EXPECT_EQ(w.code(), Errc::lock_conflict);
  rm.abort(t1);
  rm.abort(t2);
  ASSERT_TRUE(deposit(t3, "a1", 5).is_ok());  // readers gone
}

/// A resource keeping the default (whole-instance) key_set declaration.
class UndeclaredResource final : public resource::Resource {
 public:
  [[nodiscard]] std::string type_name() const override { return "plain"; }
  [[nodiscard]] Value initial_state() const override {
    Value state = Value::empty_map();
    state.set("cells", Value::empty_map());
    return state;
  }
  Result<Value> invoke(std::string_view op, const Value& p,
                       Value& state) override {
    if (op != "put") return Status(Errc::rejected, "unknown op");
    state.as_map().at("cells").set(p.at("key").as_string(), p.at("value"));
    return Value::empty_map();
  }
};

TEST_F(PerKeyFixture, UndeclaredResourceFallsBackToWholeInstance) {
  rm.add_resource("plain", std::make_unique<UndeclaredResource>());
  const TxId t1(1), t2(2);
  ASSERT_TRUE(rm.invoke(t1, "plain", "put",
                        params({{"key", Value("x")}, {"value", Value(1)}}))
                  .is_ok());
  // No key-set declared: different keys still conflict (whole instance).
  auto r = rm.invoke(t2, "plain", "put",
                     params({{"key", Value("y")}, {"value", Value(2)}}));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::lock_conflict);
}

TEST_F(PerKeyFixture, DirectoryPublishesDisjointKeysConcurrently) {
  rm.add_resource("dir", std::make_unique<resource::Directory>());
  const TxId t1(1), t2(2), t3(3);
  ASSERT_TRUE(rm.invoke(t1, "dir", "publish",
                        params({{"key", Value("x")}, {"value", Value(1)}}))
                  .is_ok());
  // Per-entry keys: a different entry proceeds, the same entry conflicts.
  ASSERT_TRUE(rm.invoke(t2, "dir", "publish",
                        params({{"key", Value("y")}, {"value", Value(2)}}))
                  .is_ok());
  auto same = rm.invoke(t3, "dir", "publish",
                        params({{"key", Value("x")}, {"value", Value(3)}}));
  ASSERT_FALSE(same.is_ok());
  EXPECT_EQ(same.code(), Errc::lock_conflict);
  // list reads the whole entries slot: excluded by any writer.
  auto list = rm.invoke(t3, "dir", "list", params({{"prefix", Value("")}}));
  ASSERT_FALSE(list.is_ok());
  EXPECT_EQ(list.code(), Errc::lock_conflict);
  ASSERT_TRUE(rm.prepare(t1));
  rm.commit(t1);
  ASSERT_TRUE(rm.prepare(t2));
  rm.commit(t2);
  EXPECT_TRUE(
      rm.committed_state("dir").at("entries").has("x"));
  EXPECT_TRUE(
      rm.committed_state("dir").at("entries").has("y"));
  EXPECT_FALSE(rm.locked("dir"));
}

TEST_F(PerKeyFixture, MintRedeemsDisjointCoinsConcurrently) {
  rm.add_resource("mint", std::make_unique<resource::Mint>());
  // Seed two live coins outside any transaction.
  {
    Value state = rm.committed_state("mint");
    for (const char* serial : {"1", "2"}) {
      Value coin = Value::empty_map();
      coin.set("currency", Value("USD"));
      coin.set("value", std::int64_t{20});
      state.as_map().at("live").set(serial, std::move(coin));
    }
    state.set("next_serial", std::int64_t{3});
    rm.poke_state("mint", std::move(state));
  }
  const TxId t1(1), t2(2), t3(3);
  Value coins1 = Value::empty_list();
  coins1.push_back(std::int64_t{1});
  Value coins2 = Value::empty_list();
  coins2.push_back(std::int64_t{2});
  ASSERT_TRUE(
      rm.invoke(t1, "mint", "redeem", params({{"coins", coins1}})).is_ok());
  // Disjoint serials: the second redeem proceeds under per-key locking.
  ASSERT_TRUE(
      rm.invoke(t2, "mint", "redeem", params({{"coins", coins2}})).is_ok());
  // The same serial conflicts (t1 holds live/1 exclusively).
  auto clash =
      rm.invoke(t3, "mint", "redeem", params({{"coins", coins1}}));
  ASSERT_FALSE(clash.is_ok());
  EXPECT_EQ(clash.code(), Errc::lock_conflict);
  // issue declares the whole live slot: excluded while coins are locked.
  auto wide = rm.invoke(t3, "mint", "issue",
                        params({{"currency", Value("USD")},
                                {"value", Value(5)},
                                {"count", Value(1)}}));
  ASSERT_FALSE(wide.is_ok());
  EXPECT_EQ(wide.code(), Errc::lock_conflict);
  ASSERT_TRUE(rm.prepare(t1));
  rm.commit(t1);
  ASSERT_TRUE(rm.prepare(t2));
  rm.commit(t2);
  EXPECT_FALSE(rm.committed_state("mint").at("live").has("1"));
  EXPECT_FALSE(rm.committed_state("mint").at("live").has("2"));
  EXPECT_FALSE(rm.locked("mint"));
}

TEST_F(PerKeyFixture, TransferTouchesBothAccountsAtomically) {
  const TxId t1(1);
  ASSERT_TRUE(rm.invoke(t1, "bank", "transfer",
                        params({{"from", Value("a1")},
                                {"to", Value("a2")},
                                {"amount", Value(30)}}))
                  .is_ok());
  ASSERT_TRUE(rm.prepare(t1));
  rm.commit(t1);
  EXPECT_EQ(Bank::balance_in(rm.committed_state("bank"), "a1"), 70);
  EXPECT_EQ(Bank::balance_in(rm.committed_state("bank"), "a2"), 130);
}

TEST_F(PerKeyFixture, RepeatableReadsAndDeletesWriteBack) {
  const TxId tx(1);
  ASSERT_TRUE(rm.invoke(tx, "kv", "put",
                        params({{"key", Value("k")}, {"value", Value(7)}}))
                  .is_ok());
  // The tx sees its own staged write.
  auto got = rm.invoke(tx, "kv", "get", params({{"key", Value("k")}}));
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().at("value").as_int(), 7);
  ASSERT_TRUE(
      rm.invoke(tx, "kv", "del", params({{"key", Value("k")}})).is_ok());
  ASSERT_TRUE(rm.prepare(tx));
  rm.commit(tx);
  // The delete's absent slice must write back as a removal.
  EXPECT_FALSE(rm.committed_state("kv").at("entries").has("k"));
}

TEST_F(PerKeyFixture, CoveringSlotFoldsSubKeySlices) {
  // Seed a committed entry, stage a per-key put, then a whole-slot clear:
  // the wider unit must fold the narrower slice and win at commit.
  Value st = rm.committed_state("kv");
  st.as_map().at("entries").set("old", Value(1));
  rm.poke_state("kv", std::move(st));
  const TxId tx(1);
  ASSERT_TRUE(rm.invoke(tx, "kv", "put",
                        params({{"key", Value("new")}, {"value", Value(2)}}))
                  .is_ok());
  ASSERT_TRUE(rm.invoke(tx, "kv", "clear", params({})).is_ok());
  ASSERT_TRUE(rm.invoke(tx, "kv", "put",
                        params({{"key", Value("post")}, {"value", Value(3)}}))
                  .is_ok());
  ASSERT_TRUE(rm.prepare(tx));
  rm.commit(tx);
  const auto& entries = rm.committed_state("kv").at("entries");
  EXPECT_FALSE(entries.has("old"));
  EXPECT_FALSE(entries.has("new"));
  ASSERT_TRUE(entries.has("post"));
  EXPECT_EQ(entries.at("post").as_int(), 3);
  EXPECT_FALSE(rm.locked("kv"));
}

TEST_F(PerKeyFixture, PreparedPerKeyOverlaySurvivesCrash) {
  const TxId tx(1);
  ASSERT_TRUE(deposit(tx, "a1", 25).is_ok());
  ASSERT_TRUE(rm.prepare(tx));
  rm.on_crash();
  // The prepared write's key lock is re-acquired: a new tx must conflict.
  EXPECT_TRUE(rm.locked_key("bank", "accounts/a1"));
  EXPECT_FALSE(rm.locked_key("bank", "accounts/a2"));
  auto r = deposit(TxId(2), "a1", 1);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::lock_conflict);
  // Commit from the recovered overlay applies the staged value.
  rm.commit(tx);
  EXPECT_EQ(Bank::balance_in(rm.committed_state("bank"), "a1"), 125);
  EXPECT_FALSE(rm.locked("bank"));
}

TEST_F(PerKeyFixture, AbortMidTxDropsEveryLockAndSlice) {
  // The lock-leak regression: overlapping key-sets, one tx aborts after a
  // partially failed invoke — no lock and no staged slice may survive,
  // including across crash-epoch invalidation.
  const TxId t1(1), t2(2);
  ASSERT_TRUE(deposit(t1, "a1", 10).is_ok());
  // t2 takes a2, then fails acquiring a1 (held by t1): all-or-nothing
  // acquisition must leave t2 with no partial grant from this invoke.
  ASSERT_TRUE(deposit(t2, "a2", 5).is_ok());
  auto r = rm.invoke(t2, "bank", "transfer",
                     params({{"from", Value("a2")},
                             {"to", Value("a1")},
                             {"amount", Value(1)}}));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::lock_conflict);

  // A failed operation (insufficient funds) must not stage its partial
  // mutation either.
  auto fail = rm.invoke(t2, "bank", "withdraw",
                        params({{"account", Value("a2")},
                                {"amount", Value(100'000)}}));
  ASSERT_FALSE(fail.is_ok());
  EXPECT_EQ(fail.code(), Errc::rejected);

  rm.abort(t2);
  EXPECT_FALSE(rm.locked_key("bank", "accounts/a2"));
  EXPECT_FALSE(rm.has_tx(TxId(2)));
  EXPECT_TRUE(rm.locked_key("bank", "accounts/a1"));  // t1 unaffected

  // Re-running t2's deposit must now succeed and commit only its own key.
  ASSERT_TRUE(deposit(TxId(3), "a2", 5).is_ok());
  ASSERT_TRUE(rm.prepare(TxId(3)));
  rm.commit(TxId(3));
  EXPECT_EQ(Bank::balance_in(rm.committed_state("bank"), "a2"), 105);

  // Crash-epoch invalidation: t1 never prepared, so every lock and slice
  // evaporates; no key may stay locked.
  rm.on_crash();
  EXPECT_FALSE(rm.locked("bank"));
  EXPECT_FALSE(rm.locked_key("bank", "accounts/a1"));
  EXPECT_FALSE(rm.has_tx(t1));
  EXPECT_EQ(Bank::balance_in(rm.committed_state("bank"), "a1"), 100);
}

TEST_F(PerKeyFixture, SubSlashKeysStayDistinct) {
  // Exchange pairs embed '/' in the sub part; only the first '/' splits.
  rm.add_resource("exchange", std::make_unique<resource::Exchange>());
  const TxId t1(1), t2(2);
  ASSERT_TRUE(rm.invoke(t1, "exchange", "set_rate",
                        params({{"from", Value("USD")},
                                {"to", Value("EUR")},
                                {"rate_ppm", Value(900'000)}}))
                  .is_ok());
  // A different pair is a different key — no conflict.
  ASSERT_TRUE(rm.invoke(t2, "exchange", "set_rate",
                        params({{"from", Value("GBP")},
                                {"to", Value("JPY")},
                                {"rate_ppm", Value(500'000)}}))
                  .is_ok());
  // The same pair conflicts (inverse rate overlaps too).
  auto r = rm.invoke(t2, "exchange", "set_rate",
                     params({{"from", Value("EUR")},
                             {"to", Value("USD")},
                             {"rate_ppm", Value(1'100'000)}}));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::lock_conflict);
}

// --------------------------------------------------------------------------
// Platform level: contended fleets, linearizability-style equivalence
// --------------------------------------------------------------------------

/// Which account each bank_hot step of agent i deposits into.
enum class Draws {
  disjoint,  ///< agent i only touches account i
  one_key,   ///< every agent touches account 0 (all pairs collide)
  random,    ///< seeded uniform draws over all accounts
};

struct FleetSpec {
  std::uint32_t concurrency = 4;
  std::uint32_t group_window = 1;
  int agents = 6;
  int steps = 6;
  std::uint64_t seed = 21;
  Draws draws = Draws::disjoint;
};

struct FleetResult {
  bool all_done = false;
  serial::Value bank_state;
  std::uint64_t lock_conflicts = 0;
  std::uint64_t sync_batches = 0;
  std::uint64_t committed_steps = 0;
  bool quiescent_unlocked = false;
};

FleetResult run_bank_fleet(const FleetSpec& spec) {
  agent::PlatformConfig cfg;
  cfg.node_concurrency = spec.concurrency;
  cfg.group_commit_window = spec.group_window;
  TestWorld w(cfg, /*node_count=*/1, spec.seed);
  harness::register_workload(w.platform);
  for (int a = 0; a < spec.agents; ++a) {
    w.open_account(1, "a" + std::to_string(a), 1'000);
  }

  // Randomized schedules: per-agent step counts, account draws and
  // amounts all come from the seeded generator, so every concurrency
  // config replays the identical workload.
  Rng rng(spec.seed * 31 + 7);
  std::vector<AgentId> ids;
  std::vector<int> step_counts;
  for (int a = 0; a < spec.agents; ++a) {
    const int steps = spec.steps + static_cast<int>(rng.next_below(4));
    step_counts.push_back(steps);
    auto ag = std::make_unique<WorkloadAgent>();
    Itinerary tour;
    for (int s = 0; s < steps; ++s) tour.step("bank_hot", TestWorld::n(1));
    Itinerary main_it;
    main_it.sub(std::move(tour));
    ag->itinerary() = std::move(main_it);
    Value accounts = Value::empty_list();
    Value amounts = Value::empty_list();
    for (int s = 0; s < steps; ++s) {
      std::int64_t account = 0;
      if (spec.draws == Draws::disjoint) account = a;
      if (spec.draws == Draws::random) {
        account = static_cast<std::int64_t>(
            rng.next_below(static_cast<std::uint64_t>(spec.agents)));
      }
      accounts.push_back(account);
      amounts.push_back(static_cast<std::int64_t>(1 + rng.next_below(50)));
    }
    ag->set_config_value("hot_accounts", std::move(accounts));
    ag->set_config_value("hot_amounts", std::move(amounts));
    auto r = w.platform.launch(std::move(ag));
    EXPECT_TRUE(r.is_ok());
    ids.push_back(r.value());
  }

  FleetResult res;
  if (!w.platform.run_until_all_finished(ids)) return res;
  res.all_done = true;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto& out = w.platform.outcome(ids[i]);
    res.all_done = res.all_done && out.state == AgentOutcome::State::done;
    if (out.state != AgentOutcome::State::done) continue;
    auto fin = w.platform.decode(out.final_agent);
    EXPECT_EQ(fin->data().weak("visits").as_int(), step_counts[i])
        << "agent " << ids[i].value() << " lost exactly-once";
    res.committed_steps += static_cast<std::uint64_t>(step_counts[i]);
  }
  res.bank_state = w.committed(1, "bank");
  res.lock_conflicts = w.platform.lock_conflict_aborts();
  res.sync_batches =
      w.platform.node(TestWorld::n(1)).storage().stats().sync_batches;
  res.quiescent_unlocked =
      !w.platform.node(TestWorld::n(1)).resources().locked("bank");
  return res;
}

TEST(KeyLockFleetTest, DisjointKeysMatchInstanceAndSerialExecution) {
  // The linearizability-style check: N agents hammering keys of ONE bank,
  // with randomized step counts and amounts, must commit the exact same
  // state concurrently as under fully serial execution — across several
  // seeds. Disjoint keys never conflict; when every agent writes the same
  // key (the whole-instance-lock envelope) every concurrent pair does.
  for (const std::uint64_t seed : {21ull, 77ull, 123ull}) {
    for (const Draws draws : {Draws::disjoint, Draws::one_key}) {
      const auto a = run_bank_fleet({8, 1, 6, 6, seed, draws});
      const auto serial = run_bank_fleet({1, 1, 6, 6, seed, draws});
      ASSERT_TRUE(a.all_done && serial.all_done) << "seed " << seed;
      EXPECT_EQ(a.bank_state, serial.bank_state) << "seed " << seed;
      EXPECT_EQ(serial.lock_conflicts, 0u) << "seed " << seed;
      if (draws == Draws::disjoint) {
        EXPECT_EQ(a.lock_conflicts, 0u) << "seed " << seed;
      } else {
        EXPECT_GT(a.lock_conflicts, 0u) << "seed " << seed;
      }
      EXPECT_TRUE(a.quiescent_unlocked);
    }
  }
}

TEST(KeyLockFleetTest, OverlappingKeysStayExactlyOnceUnderContention) {
  // Random overlapping draws: conflicts happen, the abort/restart path
  // runs, and the committed sums still account for every deposit exactly
  // once in every configuration.
  FleetSpec per_key{8, 1, 6, 6, 99, Draws::random};
  FleetSpec serial{1, 1, 6, 6, 99, Draws::random};
  const auto a = run_bank_fleet(per_key);
  const auto c = run_bank_fleet(serial);
  ASSERT_TRUE(a.all_done && c.all_done);
  // Deposits commute: any interleaving must commit identical balances.
  EXPECT_EQ(a.bank_state, c.bank_state);
  EXPECT_TRUE(a.quiescent_unlocked);
}

// --------------------------------------------------------------------------
// Group commit
// --------------------------------------------------------------------------

TEST(GroupCommitTest, WindowBatchesSyncsWithoutChangingResults) {
  FleetSpec base{4, 1, 4, 4, 5, Draws::disjoint};
  FleetSpec grouped = base;
  grouped.group_window = 4;
  const auto a = run_bank_fleet(base);
  const auto b = run_bank_fleet(grouped);
  ASSERT_TRUE(a.all_done && b.all_done);
  EXPECT_EQ(a.bank_state, b.bank_state);
  // window=1: every committed step transaction pays its own sync.
  EXPECT_EQ(a.sync_batches, a.committed_steps);
  // window=4: commits share batches — strictly fewer syncs than steps.
  EXPECT_LT(b.sync_batches, b.committed_steps);
  EXPECT_GT(b.sync_batches, 0u);
}

TEST(GroupCommitTest, CrashBeforeFlushPresumedAbortsAndRestarts) {
  // A commit parked in the group-commit queue is decided but not yet
  // applied; a crash before the flush must leave the record queued and
  // the step re-executes exactly once after recovery.
  agent::PlatformConfig cfg;
  cfg.node_concurrency = 1;
  cfg.group_commit_window = 8;            // never fills with one agent
  cfg.group_commit_flush_us = 50'000;     // flush far in the future
  TestWorld w(cfg, /*node_count=*/1, /*seed=*/3);
  harness::register_workload(w.platform);
  w.open_account(1, "a0", 0);
  auto ag = std::make_unique<WorkloadAgent>();
  Itinerary tour;
  for (int s = 0; s < 3; ++s) tour.step("bank_hot", TestWorld::n(1));
  Itinerary main_it;
  main_it.sub(std::move(tour));
  ag->itinerary() = std::move(main_it);
  Value accounts = Value::empty_list();
  for (int s = 0; s < 3; ++s) accounts.push_back(std::int64_t{0});
  ag->set_config_value("hot_accounts", std::move(accounts));
  // First step's commit enters the queue at t=200us (one service unit);
  // crash at t=300us, well before the 50ms flush.
  w.faults.crash_at(TestWorld::n(1), /*at=*/300, /*downtime=*/5'000);
  auto id = w.platform.launch(std::move(ag));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  const auto& out = w.platform.outcome(id.value());
  ASSERT_EQ(out.state, AgentOutcome::State::done);
  auto fin = w.platform.decode(out.final_agent);
  EXPECT_EQ(fin->data().weak("visits").as_int(), 3);  // exactly once
  EXPECT_EQ(resource::Bank::balance_in(w.committed(1, "bank"), "a0"), 3);
  EXPECT_GE(w.platform.spans().count(EventKind::crash), 1u);
}

}  // namespace
}  // namespace mar
