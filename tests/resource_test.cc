// Unit tests for the transactional resource layer and the five built-in
// resources (bank, shop, exchange, mint, directory).
#include <gtest/gtest.h>

#include "resource/bank.h"
#include "resource/directory.h"
#include "resource/exchange.h"
#include "resource/mint.h"
#include "resource/resource_manager.h"
#include "resource/shop.h"
#include "storage/stable_storage.h"

namespace mar::resource {
namespace {

Value params(std::initializer_list<std::pair<std::string, Value>> kv) {
  Value v = Value::empty_map();
  for (auto& [k, val] : kv) v.set(k, val);
  return v;
}

// --------------------------------------------------------------------------
// ResourceManager: overlays, locks, participant behaviour
// --------------------------------------------------------------------------

struct RmFixture : ::testing::Test {
  storage::StableStorage stable;
  ResourceManager rm{stable};

  void SetUp() override {
    rm.add_resource("bank", std::make_unique<Bank>());
  }
  Result<Value> open(TxId tx, const std::string& acct) {
    return rm.invoke(tx, "bank", "open", params({{"account", Value(acct)}}));
  }
  Result<Value> deposit(TxId tx, const std::string& acct, std::int64_t amt) {
    return rm.invoke(tx, "bank", "deposit",
                     params({{"account", Value(acct)}, {"amount", Value(amt)}}));
  }
};

TEST_F(RmFixture, UncommittedChangesAreInvisible) {
  const TxId tx(1);
  ASSERT_TRUE(open(tx, "a").is_ok());
  ASSERT_TRUE(deposit(tx, "a", 10).is_ok());
  // Committed state unchanged until commit.
  EXPECT_TRUE(rm.committed_state("bank").at("accounts").as_map().empty());
  ASSERT_TRUE(rm.prepare(tx));
  rm.commit(tx);
  EXPECT_EQ(Bank::balance_in(rm.committed_state("bank"), "a"), 10);
}

TEST_F(RmFixture, AbortDiscardsOverlay) {
  const TxId tx(1);
  ASSERT_TRUE(open(tx, "a").is_ok());
  rm.abort(tx);
  EXPECT_TRUE(rm.committed_state("bank").at("accounts").as_map().empty());
  EXPECT_FALSE(rm.locked("bank"));
}

TEST_F(RmFixture, LockConflictSurfacesAsError) {
  const TxId t1(1);
  const TxId t2(2);
  ASSERT_TRUE(open(t1, "a").is_ok());
  auto r = deposit(t2, "a", 1);  // same account: overlapping write keys
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::lock_conflict);
  rm.commit(t1);  // without prepare: overlay applied? commit needs staged tx
}

TEST_F(RmFixture, LockReleasedAfterCommit) {
  const TxId t1(1);
  ASSERT_TRUE(open(t1, "a").is_ok());
  ASSERT_TRUE(rm.prepare(t1));
  rm.commit(t1);
  const TxId t2(2);
  EXPECT_TRUE(deposit(t2, "a", 1).is_ok());
}

TEST_F(RmFixture, FailedOperationLeavesNoPartialMutation) {
  const TxId tx(1);
  ASSERT_TRUE(open(tx, "a").is_ok());
  // transfer = withdraw + deposit; insufficient funds fails the withdraw
  // half-way: the overlay must be unchanged by the failed op.
  auto r = rm.invoke(tx, "bank", "transfer",
                     params({{"from", Value("a")},
                             {"to", Value("a")},
                             {"amount", Value(100)}}));
  EXPECT_EQ(r.code(), Errc::rejected);
  ASSERT_TRUE(deposit(tx, "a", 5).is_ok());
  ASSERT_TRUE(rm.prepare(tx));
  rm.commit(tx);
  EXPECT_EQ(Bank::balance_in(rm.committed_state("bank"), "a"), 5);
}

TEST_F(RmFixture, PreparedOverlaySurvivesCrash) {
  const TxId tx(1);
  ASSERT_TRUE(open(tx, "a").is_ok());
  ASSERT_TRUE(deposit(tx, "a", 42).is_ok());
  ASSERT_TRUE(rm.prepare(tx));
  rm.on_crash();
  EXPECT_TRUE(rm.has_tx(tx));
  EXPECT_TRUE(rm.locked("bank"));  // prepared writes stay isolated
  rm.commit(tx);
  EXPECT_EQ(Bank::balance_in(rm.committed_state("bank"), "a"), 42);
}

TEST_F(RmFixture, VolatileOverlayLostOnCrash) {
  const TxId tx(1);
  ASSERT_TRUE(open(tx, "a").is_ok());
  rm.on_crash();
  EXPECT_FALSE(rm.has_tx(tx));
  EXPECT_FALSE(rm.locked("bank"));
}

TEST_F(RmFixture, UnknownResourceIsNotFound) {
  EXPECT_EQ(rm.invoke(TxId(1), "nope", "op", Value::empty_map()).code(),
            Errc::not_found);
}

// --------------------------------------------------------------------------
// Bank
// --------------------------------------------------------------------------

struct BankFixture : ::testing::Test {
  Bank bank;
  Value state = bank.initial_state();

  Result<Value> run(std::string_view op, Value p) {
    return bank.invoke(op, p, state);
  }
};

TEST_F(BankFixture, DepositWithdrawBalance) {
  ASSERT_TRUE(run("open", params({{"account", Value("a")}})).is_ok());
  EXPECT_EQ(run("deposit", params({{"account", Value("a")},
                                   {"amount", Value(70)}}))
                .value()
                .at("balance")
                .as_int(),
            70);
  EXPECT_EQ(run("withdraw", params({{"account", Value("a")},
                                    {"amount", Value(30)}}))
                .value()
                .at("balance")
                .as_int(),
            40);
  EXPECT_EQ(run("balance", params({{"account", Value("a")}}))
                .value()
                .at("balance")
                .as_int(),
            40);
}

TEST_F(BankFixture, OverdraftPolicyEnforced) {
  ASSERT_TRUE(run("open", params({{"account", Value("strict")}})).is_ok());
  ASSERT_TRUE(run("open", params({{"account", Value("loose")},
                                  {"overdraft", Value(true)}}))
                  .is_ok());
  // Sec. 3.2: the failing compensation case.
  EXPECT_EQ(run("withdraw", params({{"account", Value("strict")},
                                    {"amount", Value(1)}}))
                .code(),
            Errc::rejected);
  EXPECT_TRUE(run("withdraw", params({{"account", Value("loose")},
                                      {"amount", Value(1)}}))
                  .is_ok());
}

TEST_F(BankFixture, RejectsBadInput) {
  EXPECT_EQ(run("deposit", params({{"account", Value("ghost")},
                                   {"amount", Value(1)}}))
                .code(),
            Errc::not_found);
  ASSERT_TRUE(run("open", params({{"account", Value("a")}})).is_ok());
  EXPECT_EQ(run("open", params({{"account", Value("a")}})).code(),
            Errc::rejected);
  EXPECT_EQ(run("deposit", params({{"account", Value("a")},
                                   {"amount", Value(-5)}}))
                .code(),
            Errc::rejected);
  EXPECT_EQ(run("nonsense", Value::empty_map()).code(), Errc::rejected);
}

TEST_F(BankFixture, TransferMovesMoneyAtomically) {
  ASSERT_TRUE(run("open", params({{"account", Value("a")}})).is_ok());
  ASSERT_TRUE(run("open", params({{"account", Value("b")}})).is_ok());
  ASSERT_TRUE(run("deposit", params({{"account", Value("a")},
                                     {"amount", Value(100)}}))
                  .is_ok());
  ASSERT_TRUE(run("transfer", params({{"from", Value("a")},
                                      {"to", Value("b")},
                                      {"amount", Value(60)}}))
                  .is_ok());
  EXPECT_EQ(Bank::balance_in(state, "a"), 40);
  EXPECT_EQ(Bank::balance_in(state, "b"), 60);
}

// --------------------------------------------------------------------------
// Shop
// --------------------------------------------------------------------------

struct ShopFixture : ::testing::Test {
  Shop shop;
  Value state = shop.initial_state();
  Result<Value> run(std::string_view op, Value p) {
    return shop.invoke(op, p, state);
  }
  void restock(std::int64_t qty, std::int64_t price) {
    ASSERT_TRUE(run("restock", params({{"item", Value("widget")},
                                       {"qty", Value(qty)},
                                       {"price", Value(price)}}))
                    .is_ok());
  }
};

TEST_F(ShopFixture, BuyDecrementsStockAndGivesChange) {
  restock(10, 25);
  auto r = run("buy", params({{"item", Value("widget")},
                              {"qty", Value(2)},
                              {"payment", Value(100)},
                              {"now", Value(0)}}));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().at("cost").as_int(), 50);
  EXPECT_EQ(r.value().at("change").as_int(), 50);
  EXPECT_EQ(run("stock", params({{"item", Value("widget")}}))
                .value()
                .at("qty")
                .as_int(),
            8);
}

TEST_F(ShopFixture, OutOfStockRejected) {
  restock(1, 10);
  EXPECT_EQ(run("buy", params({{"item", Value("widget")},
                               {"qty", Value(2)},
                               {"payment", Value(100)},
                               {"now", Value(0)}}))
                .code(),
            Errc::rejected);
  EXPECT_EQ(run("buy", params({{"item", Value("gadget")},
                               {"qty", Value(1)},
                               {"payment", Value(100)},
                               {"now", Value(0)}}))
                .code(),
            Errc::not_found);
}

TEST_F(ShopFixture, CancelWithinWindowRefundsCashMinusFee) {
  restock(5, 100);
  ASSERT_TRUE(run("set_policy", params({{"cancel_fee", Value(10)},
                                        {"cash_window", Value(1000)}}))
                  .is_ok());
  auto buy = run("buy", params({{"item", Value("widget")},
                                {"qty", Value(1)},
                                {"payment", Value(100)},
                                {"now", Value(0)}}));
  ASSERT_TRUE(buy.is_ok());
  auto cancel = run("cancel", params({{"order", buy.value().at("order")},
                                      {"now", Value(500)}}));
  ASSERT_TRUE(cancel.is_ok());
  EXPECT_EQ(cancel.value().at("mode").as_string(), "cash");
  EXPECT_EQ(cancel.value().at("refund").as_int(), 90);
  EXPECT_EQ(cancel.value().at("fee").as_int(), 10);
  // Goods returned to stock.
  EXPECT_EQ(run("stock", params({{"item", Value("widget")}}))
                .value()
                .at("qty")
                .as_int(),
            5);
}

TEST_F(ShopFixture, CancelAfterWindowGivesCreditNote) {
  // Sec. 3.2's time-dependent reimbursement policy.
  restock(5, 100);
  ASSERT_TRUE(run("set_policy", params({{"cancel_fee", Value(10)},
                                        {"cash_window", Value(1000)}}))
                  .is_ok());
  auto buy = run("buy", params({{"item", Value("widget")},
                                {"qty", Value(1)},
                                {"payment", Value(100)},
                                {"now", Value(0)}}));
  auto cancel = run("cancel", params({{"order", buy.value().at("order")},
                                      {"now", Value(5000)}}));
  ASSERT_TRUE(cancel.is_ok());
  EXPECT_EQ(cancel.value().at("mode").as_string(), "credit");
  EXPECT_EQ(cancel.value().at("refund").as_int(), 100);
}

TEST_F(ShopFixture, CancelUnknownOrderFails) {
  EXPECT_EQ(run("cancel", params({{"order", Value(77)}, {"now", Value(0)}}))
                .code(),
            Errc::not_found);
}

// --------------------------------------------------------------------------
// Exchange
// --------------------------------------------------------------------------

struct ExchangeFixture : ::testing::Test {
  Exchange ex;
  Value state = ex.initial_state();
  Result<Value> run(std::string_view op, Value p) {
    return ex.invoke(op, p, state);
  }
};

TEST_F(ExchangeFixture, ConvertUsesRate) {
  ASSERT_TRUE(run("set_rate", params({{"from", Value("USD")},
                                      {"to", Value("EUR")},
                                      {"rate_ppm", Value(900'000)}}))
                  .is_ok());
  auto r = run("convert", params({{"from", Value("USD")},
                                  {"to", Value("EUR")},
                                  {"amount", Value(200)}}));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().at("out").as_int(), 180);
}

TEST_F(ExchangeFixture, InverseRateInstalledAutomatically) {
  ASSERT_TRUE(run("set_rate", params({{"from", Value("USD")},
                                      {"to", Value("EUR")},
                                      {"rate_ppm", Value(900'000)}}))
                  .is_ok());
  auto r = run("rate", params({{"from", Value("EUR")}, {"to", Value("USD")}}));
  ASSERT_TRUE(r.is_ok());
  EXPECT_NEAR(static_cast<double>(r.value().at("rate_ppm").as_int()),
              1'111'111.0, 2.0);
}

TEST_F(ExchangeFixture, UnknownPairFails) {
  EXPECT_EQ(run("convert", params({{"from", Value("USD")},
                                   {"to", Value("JPY")},
                                   {"amount", Value(1)}}))
                .code(),
            Errc::not_found);
}

// --------------------------------------------------------------------------
// Mint
// --------------------------------------------------------------------------

struct MintFixture : ::testing::Test {
  Mint mint;
  Value state = mint.initial_state();
  Result<Value> run(std::string_view op, Value p) {
    return mint.invoke(op, p, state);
  }
};

TEST_F(MintFixture, IssueAndRedeemRoundTrip) {
  auto issued = run("issue", params({{"currency", Value("USD")},
                                     {"value", Value(20)},
                                     {"count", Value(3)}}));
  ASSERT_TRUE(issued.is_ok());
  const Value& coins = issued.value().at("coins");
  EXPECT_EQ(coins.as_list().size(), 3u);
  EXPECT_EQ(Mint::wallet_total(coins), 60);
  auto redeemed =
      run("redeem", params({{"coins", Mint::wallet_serials(coins)}}));
  ASSERT_TRUE(redeemed.is_ok());
  EXPECT_EQ(redeemed.value().at("total").as_int(), 60);
  EXPECT_EQ(redeemed.value().at("currency").as_string(), "USD");
}

TEST_F(MintFixture, DoubleSpendRejectedAtomically) {
  auto issued = run("issue", params({{"currency", Value("USD")},
                                     {"value", Value(10)},
                                     {"count", Value(2)}}));
  const Value& coins = issued.value().at("coins");
  ASSERT_TRUE(
      run("redeem", params({{"coins", Mint::wallet_serials(coins)}})).is_ok());
  // Second redemption of the same serials must fail entirely.
  EXPECT_EQ(
      run("redeem", params({{"coins", Mint::wallet_serials(coins)}})).code(),
      Errc::rejected);
}

TEST_F(MintFixture, FreshSerialsForEveryIssue) {
  auto a = run("issue", params({{"currency", Value("USD")},
                                {"value", Value(10)},
                                {"count", Value(2)}}));
  auto b = run("issue", params({{"currency", Value("USD")},
                                {"value", Value(10)},
                                {"count", Value(2)}}));
  std::set<std::int64_t> serials;
  for (const auto& c : a.value().at("coins").as_list()) {
    serials.insert(c.at("serial").as_int());
  }
  for (const auto& c : b.value().at("coins").as_list()) {
    serials.insert(c.at("serial").as_int());
  }
  EXPECT_EQ(serials.size(), 4u);
}

TEST_F(MintFixture, VerifyReportsLiveness) {
  auto issued = run("issue", params({{"currency", Value("USD")},
                                     {"value", Value(10)},
                                     {"count", Value(1)}}));
  const auto serial =
      issued.value().at("coins").as_list()[0].at("serial").as_int();
  EXPECT_TRUE(run("verify", params({{"serial", Value(serial)}}))
                  .value()
                  .at("valid")
                  .as_bool());
  ASSERT_TRUE(run("redeem", params({{"coins",
                                     Mint::wallet_serials(
                                         issued.value().at("coins"))}}))
                  .is_ok());
  EXPECT_FALSE(run("verify", params({{"serial", Value(serial)}}))
                   .value()
                   .at("valid")
                   .as_bool());
}

TEST_F(MintFixture, MixedCurrencyRedeemRejected) {
  auto usd = run("issue", params({{"currency", Value("USD")},
                                  {"value", Value(10)},
                                  {"count", Value(1)}}));
  auto eur = run("issue", params({{"currency", Value("EUR")},
                                  {"value", Value(10)},
                                  {"count", Value(1)}}));
  Value serials = Value::empty_list();
  serials.push_back(
      usd.value().at("coins").as_list()[0].at("serial").as_int());
  serials.push_back(
      eur.value().at("coins").as_list()[0].at("serial").as_int());
  EXPECT_EQ(run("redeem", params({{"coins", serials}})).code(),
            Errc::rejected);
}

// --------------------------------------------------------------------------
// Directory
// --------------------------------------------------------------------------

TEST(DirectoryTest, PublishLookupListRemove) {
  Directory dir;
  Value state = dir.initial_state();
  auto run = [&](std::string_view op, Value p) {
    return dir.invoke(op, p, state);
  };
  ASSERT_TRUE(
      run("publish", params({{"key", Value("sys.cpu")}, {"value", Value(8)}}))
          .is_ok());
  ASSERT_TRUE(run("publish", params({{"key", Value("sys.mem")},
                                     {"value", Value(64)}}))
                  .is_ok());
  ASSERT_TRUE(run("publish", params({{"key", Value("app.x")},
                                     {"value", Value("y")}}))
                  .is_ok());
  EXPECT_EQ(run("lookup", params({{"key", Value("sys.cpu")}}))
                .value()
                .at("value")
                .as_int(),
            8);
  EXPECT_EQ(run("list", params({{"prefix", Value("sys.")}}))
                .value()
                .at("keys")
                .size(),
            2u);
  ASSERT_TRUE(run("remove", params({{"key", Value("sys.cpu")}})).is_ok());
  EXPECT_EQ(run("lookup", params({{"key", Value("sys.cpu")}})).code(),
            Errc::not_found);
}

}  // namespace
}  // namespace mar::resource
