// Unit tests for the rollback log (Sec. 4.2): entry layout, Fig. 2
// structure, savepoint GC under state and transition logging, and
// strong-state reconstruction.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "rollback/log.h"
#include "serial/serializable.h"
#include "util/check.h"
#include "util/rng.h"

namespace mar::rollback {
namespace {

using serial::Value;

Value strong_state(std::int64_t x) {
  Value v = Value::empty_map();
  v.set("x", x);
  return v;
}

SavepointEntry full_sp(std::uint32_t id, std::int64_t x) {
  SavepointEntry sp;
  sp.id = SavepointId(id);
  sp.image = strong_state(x);
  sp.resume_position = {0, 0};
  return sp;
}

SavepointEntry delta_sp(std::uint32_t id, const Value& from, const Value& to) {
  SavepointEntry sp;
  sp.id = SavepointId(id);
  sp.transition = true;
  sp.delta = serial::diff(from, to);
  return sp;
}

SavepointEntry light_sp(std::uint32_t id) {
  SavepointEntry sp;
  sp.id = SavepointId(id);
  sp.lightweight = true;
  return sp;
}

OperationEntry op(OpEntryKind kind, std::string name) {
  OperationEntry oe;
  oe.kind = kind;
  oe.comp_op = std::move(name);
  oe.resource_node = NodeId(1);
  oe.resource = "bank";
  return oe;
}

/// Append a BOS / ops / EOS step segment.
void push_step(RollbackLog& log, std::uint32_t node,
               std::vector<OperationEntry> ops, bool mixed = false) {
  log.push(BeginOfStepEntry{NodeId(node), "step"});
  for (auto& o : ops) log.push(std::move(o));
  EndOfStepEntry eos;
  eos.node = NodeId(node);
  eos.has_mixed = mixed;
  log.push(std::move(eos));
}

TEST(LogEntryTest, RoundTripsEveryKind) {
  // savepoint
  {
    SavepointEntry sp = full_sp(3, 42);
    sp.origin = SavepointOrigin::sub_itinerary;
    sp.depth = 2;
    LogEntry e(sp);
    auto back = serial::from_bytes<LogEntry>(serial::to_bytes(e));
    EXPECT_EQ(back.kind(), EntryKind::savepoint);
    EXPECT_EQ(back.savepoint().id, SavepointId(3));
    EXPECT_EQ(back.savepoint().depth, 2u);
    EXPECT_EQ(back.savepoint().image, strong_state(42));
    EXPECT_EQ(back.savepoint().resume_position, (Position{0, 0}));
  }
  // begin-of-step
  {
    LogEntry e(BeginOfStepEntry{NodeId(7), "buy"});
    auto back = serial::from_bytes<LogEntry>(serial::to_bytes(e));
    EXPECT_EQ(back.begin_of_step().node, NodeId(7));
    EXPECT_EQ(back.begin_of_step().step_name, "buy");
  }
  // operation
  {
    OperationEntry oe = op(OpEntryKind::mixed, "comp.x");
    oe.params = strong_state(1);
    LogEntry e(oe);
    auto back = serial::from_bytes<LogEntry>(serial::to_bytes(e));
    EXPECT_EQ(back.operation().kind, OpEntryKind::mixed);
    EXPECT_EQ(back.operation().comp_op, "comp.x");
    EXPECT_EQ(back.operation().params, strong_state(1));
    EXPECT_EQ(back.operation().resource, "bank");
  }
  // end-of-step
  {
    EndOfStepEntry eos;
    eos.node = NodeId(4);
    eos.has_mixed = true;
    eos.cannot_compensate = true;
    eos.alternatives = {NodeId(5), NodeId(6)};
    LogEntry e(eos);
    auto back = serial::from_bytes<LogEntry>(serial::to_bytes(e));
    EXPECT_TRUE(back.end_of_step().has_mixed);
    EXPECT_TRUE(back.end_of_step().cannot_compensate);
    EXPECT_EQ(back.end_of_step().alternatives.size(), 2u);
  }
}

TEST(RollbackLogTest, Fig2Layout) {
  // Reproduce Fig. 2: ... SP_k BOS_n OE_n,1 OE_n,2 ... OE_n,p EOS_n ...
  RollbackLog log;
  log.push(full_sp(1, 0));
  push_step(log, 3,
            {op(OpEntryKind::resource, "c1"), op(OpEntryKind::agent, "c2"),
             op(OpEntryKind::resource, "c3")});
  EXPECT_EQ(log.to_string(),
            "SP_1 BOS(N3,step) OE[RCE,c1] OE[ACE,c2] OE[RCE,c3] EOS(N3)");
}

TEST(RollbackLogTest, ForEachNodeVisitsEveryNodeTheEntriesName) {
  RollbackLog log;
  log.push(full_sp(1, 0));
  push_step(log, 3, {op(OpEntryKind::resource, "a")});
  OperationEntry agent_op = op(OpEntryKind::agent, "b");
  agent_op.resource_node = NodeId::invalid();
  agent_op.params = strong_state(9);
  push_step(log, 4, {std::move(agent_op)});
  log.push(BeginOfStepEntry{NodeId(5), "step"});
  EndOfStepEntry eos;
  eos.node = NodeId(5);
  eos.alternatives = {NodeId(6), NodeId(7)};
  log.push(eos);
  std::vector<NodeId> expected;
  for (const auto& e : log.entries()) {
    switch (e.kind()) {
      case EntryKind::begin_of_step:
        expected.push_back(e.begin_of_step().node);
        break;
      case EntryKind::end_of_step:
        expected.push_back(e.end_of_step().node);
        for (const auto n : e.end_of_step().alternatives) {
          expected.push_back(n);
        }
        break;
      case EntryKind::operation:
        if (e.operation().resource_node.valid()) {
          expected.push_back(e.operation().resource_node);
        }
        break;
      case EntryKind::savepoint:
        break;
    }
  }
  std::vector<NodeId> visited;
  log.for_each_node([&visited](NodeId n) { visited.push_back(n); });
  EXPECT_EQ(visited, expected);
  EXPECT_EQ(visited, (std::vector<NodeId>{NodeId(3), NodeId(1), NodeId(3),
                                          NodeId(4), NodeId(4), NodeId(5),
                                          NodeId(5), NodeId(6), NodeId(7)}));
}

TEST(RollbackLogTest, PopReturnsReverseOrder) {
  RollbackLog log;
  push_step(log, 1, {op(OpEntryKind::resource, "c1"),
                     op(OpEntryKind::resource, "c2")});
  EXPECT_EQ(log.pop().kind(), EntryKind::end_of_step);
  EXPECT_EQ(log.pop().operation().comp_op, "c2");
  EXPECT_EQ(log.pop().operation().comp_op, "c1");
  EXPECT_EQ(log.pop().kind(), EntryKind::begin_of_step);
  EXPECT_TRUE(log.empty());
  EXPECT_THROW((void)log.pop(), LogicError);
}

TEST(RollbackLogTest, TrailingSavepointAndLastEos) {
  RollbackLog log;
  EXPECT_FALSE(log.trailing_savepoint().has_value());
  push_step(log, 2, {});
  EXPECT_EQ(log.last_end_of_step()->node, NodeId(2));
  log.push(full_sp(1, 0));
  log.push(light_sp(2));
  EXPECT_EQ(log.trailing_savepoint(), SavepointId(2));
  // last_end_of_step skips the trailing savepoints.
  EXPECT_EQ(log.last_end_of_step()->node, NodeId(2));
}

TEST(RollbackLogTest, SerializationRoundTrip) {
  RollbackLog log;
  log.push(full_sp(1, 7));
  push_step(log, 2, {op(OpEntryKind::mixed, "cx")}, /*mixed=*/true);
  log.push(light_sp(2));
  auto back = serial::from_bytes<RollbackLog>(serial::to_bytes(log));
  EXPECT_EQ(back.size(), log.size());
  EXPECT_EQ(back.to_string(), log.to_string());
  EXPECT_EQ(back.byte_size(), log.byte_size());
}

// --------------------------------------------------------------------------
// Strong-state reconstruction (state + transition logging)
// --------------------------------------------------------------------------

TEST(RollbackLogTest, StrongStateFromFullImage) {
  RollbackLog log;
  log.push(full_sp(1, 10));
  push_step(log, 1, {});
  log.push(full_sp(2, 20));
  auto r = log.strong_state_at(SavepointId(1));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), strong_state(10));
  EXPECT_EQ(log.strong_state_at(SavepointId(2)).value(), strong_state(20));
}

TEST(RollbackLogTest, StrongStateFromDeltaChain) {
  RollbackLog log;
  log.push(full_sp(1, 10));
  push_step(log, 1, {});
  log.push(delta_sp(2, strong_state(10), strong_state(20)));
  push_step(log, 2, {});
  log.push(delta_sp(3, strong_state(20), strong_state(35)));
  EXPECT_EQ(log.strong_state_at(SavepointId(1)).value(), strong_state(10));
  EXPECT_EQ(log.strong_state_at(SavepointId(2)).value(), strong_state(20));
  EXPECT_EQ(log.strong_state_at(SavepointId(3)).value(), strong_state(35));
}

TEST(RollbackLogTest, LightweightSavepointAliasesPreviousData) {
  RollbackLog log;
  log.push(full_sp(1, 10));
  log.push(light_sp(2));
  EXPECT_EQ(log.strong_state_at(SavepointId(2)).value(), strong_state(10));
}

TEST(RollbackLogTest, MissingSavepointReported) {
  RollbackLog log;
  EXPECT_EQ(log.strong_state_at(SavepointId(9)).code(), Errc::not_found);
}

TEST(RollbackLogTest, DeltaWithoutBaseReported) {
  RollbackLog log;
  log.push(delta_sp(1, strong_state(0), strong_state(5)));
  EXPECT_EQ(log.strong_state_at(SavepointId(1)).code(), Errc::protocol_error);
}

// --------------------------------------------------------------------------
// Savepoint GC (Sec. 4.4.2) — "non-trivial if transition logging is used"
// --------------------------------------------------------------------------

TEST(GcTest, StateLoggingGcJustRemoves) {
  RollbackLog log;
  log.push(full_sp(1, 10));
  push_step(log, 1, {op(OpEntryKind::resource, "c")});
  log.push(full_sp(2, 20));
  push_step(log, 2, {});
  auto r = log.gc_savepoint(SavepointId(2));
  ASSERT_TRUE(r.has_value());
  // SP_2 was the last data-carrying entry, so the log reports that a next
  // savepoint must be a full image — irrelevant under state logging, where
  // every savepoint is full anyway.
  EXPECT_TRUE(*r);
  EXPECT_FALSE(log.contains_savepoint(SavepointId(2)));
  // Operation entries stay (paper: "but not the operation entries").
  EXPECT_EQ(log.size(), 6u);
  EXPECT_EQ(log.strong_state_at(SavepointId(1)).value(), strong_state(10));
}

TEST(GcTest, UnknownSavepointReturnsNullopt) {
  RollbackLog log;
  EXPECT_FALSE(log.gc_savepoint(SavepointId(4)).has_value());
}

TEST(GcTest, DeltaMergedIntoSuccessorOnGc) {
  RollbackLog log;
  log.push(full_sp(1, 10));
  log.push(delta_sp(2, strong_state(10), strong_state(20)));
  log.push(delta_sp(3, strong_state(20), strong_state(30)));
  auto r = log.gc_savepoint(SavepointId(2));
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(*r);
  // SP_3 must still reconstruct correctly through the composed delta.
  EXPECT_EQ(log.strong_state_at(SavepointId(3)).value(), strong_state(30));
}

TEST(GcTest, FullImageGcMaterializesSuccessor) {
  RollbackLog log;
  log.push(full_sp(1, 10));
  log.push(delta_sp(2, strong_state(10), strong_state(20)));
  auto r = log.gc_savepoint(SavepointId(1));
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(*r);
  // SP_2 had only a delta; after GC of its base it must be self-contained.
  EXPECT_EQ(log.strong_state_at(SavepointId(2)).value(), strong_state(20));
}

TEST(GcTest, TailGcForcesNextFullImage) {
  RollbackLog log;
  log.push(full_sp(1, 10));
  log.push(delta_sp(2, strong_state(10), strong_state(20)));
  auto r = log.gc_savepoint(SavepointId(2));
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(*r);  // chain tail left the log: next SP must be full
}

TEST(GcTest, LightweightGcIsFree) {
  RollbackLog log;
  log.push(full_sp(1, 10));
  log.push(light_sp(2));
  auto r = log.gc_savepoint(SavepointId(2));
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(*r);
  EXPECT_EQ(log.strong_state_at(SavepointId(1)).value(), strong_state(10));
}

// Randomized chain property: any GC order of middle savepoints preserves
// reconstruction of the remaining ones.
class GcChainProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GcChainProperty, ReconstructionSurvivesRandomGc) {
  Rng rng(GetParam());
  for (int round = 0; round < 30; ++round) {
    RollbackLog log;
    const int n = 4 + static_cast<int>(rng.next_below(6));
    std::vector<Value> states;
    states.push_back(strong_state(rng.next_in(0, 100)));
    log.push(full_sp(1, states[0].at("x").as_int()));
    for (int i = 1; i < n; ++i) {
      states.push_back(strong_state(rng.next_in(0, 100)));
      push_step(log, 1, {});
      log.push(delta_sp(static_cast<std::uint32_t>(i + 1), states[i - 1],
                        states[i]));
    }
    // GC a random subset of the middle savepoints, in random order.
    std::vector<int> victims;
    for (int i = 1; i < n; ++i) {
      if (rng.next_bool(0.4)) victims.push_back(i + 1);
    }
    rng.shuffle(victims);
    std::set<int> gone(victims.begin(), victims.end());
    for (int v : victims) {
      auto r = log.gc_savepoint(SavepointId(static_cast<std::uint32_t>(v)));
      ASSERT_TRUE(r.has_value());
    }
    for (int i = 0; i < n; ++i) {
      if (gone.contains(i + 1)) continue;
      auto r = log.strong_state_at(SavepointId(static_cast<std::uint32_t>(i + 1)));
      ASSERT_TRUE(r.is_ok()) << "sp " << i + 1 << ": " << r.status();
      EXPECT_EQ(r.value(), states[static_cast<std::size_t>(i)])
          << "sp " << i + 1 << " round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcChainProperty,
                         ::testing::Values(2, 71, 828, 1828));

// --------------------------------------------------------------------------
// The log's wire form (the log holds its entries encoded), checked against
// a reference model: a plain vector of materialized entries driven through
// the same random push / pop / gc / clear sequence, with reference
// implementations of GC and last_step_ops over materialized entries.
// --------------------------------------------------------------------------

/// Random nested Value. Reals avoid NaN and -0.0, the two values whose
/// equality and byte identity disagree.
Value random_value(Rng& rng, int depth) {
  const auto kind = rng.next_below(depth > 0 ? 8 : 6);
  switch (kind) {
    case 0: return Value{};
    case 1: return Value(rng.next_bool());
    case 2:
      return Value(rng.next_in(-1'000'000'000'000, 1'000'000'000'000));
    case 3:
      return Value(static_cast<double>(rng.next_in(-999, 999)) / 8.0 + 0.5);
    case 4:
      return Value(std::string(rng.next_below(12),
                               static_cast<char>('a' + rng.next_below(26))));
    case 5:
      return Value(serial::Bytes(
          rng.next_below(70), static_cast<std::uint8_t>(rng.next_below(256))));
    case 6: {
      Value l = Value::empty_list();
      for (auto n = rng.next_below(4); n > 0; --n) {
        l.push_back(random_value(rng, depth - 1));
      }
      return l;
    }
    default: {
      Value m = Value::empty_map();
      for (auto n = rng.next_below(4); n > 0; --n) {
        m.set("k" + std::to_string(rng.next_below(6)),
              random_value(rng, depth - 1));
      }
      return m;
    }
  }
}

/// Random entry; savepoints draw ids from `next_sp` so ids stay unique.
LogEntry random_entry(Rng& rng, std::uint32_t& next_sp) {
  switch (rng.next_below(4)) {
    case 0: {
      SavepointEntry sp;
      sp.id = SavepointId(next_sp++);
      sp.origin = rng.next_bool() ? SavepointOrigin::adhoc
                                  : SavepointOrigin::sub_itinerary;
      sp.depth = static_cast<std::uint32_t>(rng.next_below(4));
      const auto flavour = rng.next_below(3);
      if (flavour == 0) {
        sp.lightweight = true;
      } else if (flavour == 1) {
        sp.image = random_value(rng, 3);
      } else {
        sp.transition = true;
        sp.delta = serial::diff(random_value(rng, 3), random_value(rng, 3));
      }
      for (auto n = rng.next_below(4); n > 0; --n) {
        sp.resume_position.push_back(
            static_cast<std::uint32_t>(rng.next_below(9)));
      }
      return sp;
    }
    case 1:
      return BeginOfStepEntry{
          NodeId(static_cast<std::uint32_t>(rng.next_below(9))),
          "step" + std::to_string(rng.next_below(5))};
    case 2: {
      OperationEntry oe;
      oe.kind = static_cast<OpEntryKind>(rng.next_below(3));
      oe.comp_op = "comp." + std::to_string(rng.next_below(5));
      oe.params = random_value(rng, 3);
      oe.resource_node = NodeId(static_cast<std::uint32_t>(rng.next_below(9)));
      oe.resource = rng.next_bool() ? "bank" : "";
      return oe;
    }
    default: {
      EndOfStepEntry eos;
      eos.node = NodeId(static_cast<std::uint32_t>(rng.next_below(9)));
      eos.has_mixed = rng.next_bool();
      eos.cannot_compensate = rng.next_bool(0.2);
      for (auto n = rng.next_below(3); n > 0; --n) {
        eos.alternatives.push_back(
            NodeId(static_cast<std::uint32_t>(rng.next_below(9))));
      }
      return eos;
    }
  }
}

/// The per-entry encoding concatenation a log of `entries` serializes to.
serial::Bytes entrywise_bytes(const std::vector<LogEntry>& entries) {
  serial::Encoder enc;
  enc.write_varint(entries.size());
  for (const auto& e : entries) e.serialize(enc);
  return std::move(enc).take();
}

/// Reference savepoint GC over materialized entries.
std::optional<bool> model_gc(std::vector<LogEntry>& model, SavepointId id) {
  for (std::size_t i = model.size(); i-- > 0;) {
    if (!model[i].is_savepoint() || model[i].savepoint().id != id) continue;
    SavepointEntry removed = model[i].savepoint();
    model.erase(model.begin() + static_cast<std::ptrdiff_t>(i));
    if (removed.lightweight) return false;
    for (std::size_t j = i; j < model.size(); ++j) {
      if (!model[j].is_savepoint()) continue;
      auto& sp = model[j].savepoint();
      if (sp.lightweight) continue;
      if (!sp.transition) return false;
      if (removed.transition) {
        sp.delta = serial::compose(removed.delta, sp.delta);
      } else {
        sp.image = serial::apply(sp.delta, std::move(removed.image));
        sp.transition = false;
        sp.delta = serial::ValuePatch::none();
      }
      return false;
    }
    return true;
  }
  return std::nullopt;
}

/// Reference last_step_ops: wire sizes of the last step's operation
/// entries, as the adaptive strategy prices them.
std::vector<std::size_t> model_last_step_op_sizes(
    const std::vector<LogEntry>& model) {
  std::vector<std::size_t> sizes;
  auto it = model.rbegin();
  while (it != model.rend() && it->is_savepoint()) ++it;
  if (it == model.rend() || it->kind() != EntryKind::end_of_step) return {};
  for (++it; it != model.rend(); ++it) {
    if (it->kind() == EntryKind::begin_of_step) break;
    if (it->kind() != EntryKind::operation) return {};
    sizes.push_back(it->operation().byte_size());
  }
  std::reverse(sizes.begin(), sizes.end());
  return sizes;
}

/// Full materialization of a serialized log, entry by entry.
bool materializes(std::span<const std::uint8_t> bytes) {
  try {
    serial::Decoder dec(bytes);
    const auto n = dec.read_count();
    for (std::uint64_t i = 0; i < n; ++i) {
      LogEntry e;
      e.deserialize(dec);
    }
    dec.expect_end();
    return true;
  } catch (const serial::DecodeError&) {
    return false;
  }
}

/// The encoded log's own decode: one validating skip pass and a copy.
std::optional<RollbackLog> skip_decodes(std::span<const std::uint8_t> bytes) {
  try {
    return serial::from_bytes<RollbackLog>(bytes);
  } catch (const serial::DecodeError&) {
    return std::nullopt;
  }
}

class EncodedLogProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EncodedLogProperty, MatchesEntryModelUnderRandomMutation) {
  Rng rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    RollbackLog log;
    std::vector<LogEntry> model;
    std::uint32_t next_sp = 1;
    for (int op = 0; op < 60; ++op) {
      const auto dice = rng.next_below(100);
      if (dice < 70) {
        const auto e = random_entry(rng, next_sp);
        log.push(e);
        model.push_back(e);
      } else if (dice < 85) {
        if (model.empty()) continue;
        const auto popped = log.pop();
        EXPECT_EQ(popped, model.back());
        model.pop_back();
      } else if (dice < 97) {
        const SavepointId id(
            static_cast<std::uint32_t>(1 + rng.next_below(next_sp)));
        EXPECT_EQ(log.gc_savepoint(id), model_gc(model, id));
      } else {
        log.clear();
        model.clear();
      }
      ASSERT_EQ(log.size(), model.size());
      // The log's bytes are the per-entry encodings, concatenated.
      const auto bytes = serial::to_bytes(log);
      ASSERT_EQ(bytes, entrywise_bytes(model)) << "round " << round;
      EXPECT_EQ(log.byte_size(), bytes.size());
      // In-place queries agree with their materialized counterparts.
      std::optional<SavepointId> trailing;
      if (!model.empty() && model.back().is_savepoint()) {
        trailing = model.back().savepoint().id;
      }
      EXPECT_EQ(log.trailing_savepoint(), trailing);
      SavepointId first = SavepointId::invalid();
      for (const auto& e : model) {
        if (e.is_savepoint()) {
          first = e.savepoint().id;
          break;
        }
      }
      EXPECT_EQ(log.first_savepoint(), first);
      std::vector<std::size_t> op_sizes;
      for (const auto& o : log.last_step_ops()) {
        op_sizes.push_back(o.byte_size());
      }
      EXPECT_EQ(op_sizes, model_last_step_op_sizes(model));
    }
    // decode -> encode reproduces the input bytes exactly.
    const auto bytes = serial::to_bytes(log);
    const auto back = serial::from_bytes<RollbackLog>(bytes);
    EXPECT_EQ(serial::to_bytes(back), bytes);
    EXPECT_EQ(back.entries(), model);
  }
}

TEST_P(EncodedLogProperty, SkipRejectsExactlyWhatMaterializationRejects) {
  Rng rng(GetParam() * 7 + 1);
  int rejected = 0;
  for (int round = 0; round < 12; ++round) {
    RollbackLog log;
    std::uint32_t next_sp = 1;
    for (auto n = 1 + rng.next_below(12); n > 0; --n) {
      log.push(random_entry(rng, next_sp));
    }
    const auto bytes = serial::to_bytes(log);
    const auto check = [&](const serial::Bytes& input) {
      const auto decoded = skip_decodes(input);
      ASSERT_EQ(decoded.has_value(), materializes(input));
      if (!decoded.has_value()) {
        ++rejected;
        // A rejected append leaves the receiving log as it was.
        RollbackLog target = log;
        serial::Decoder dec(input);
        try {
          const auto n = dec.read_count();
          target.append_encoded(dec, n);
        } catch (const serial::DecodeError&) {
          EXPECT_EQ(serial::to_bytes(target), bytes);
          EXPECT_EQ(target.size(), log.size());
        }
        return;
      }
      // Accepted input is kept verbatim.
      EXPECT_EQ(serial::to_bytes(*decoded), input);
    };
    // Every truncation.
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      check(serial::Bytes(bytes.begin(),
                          bytes.begin() + static_cast<std::ptrdiff_t>(len)));
    }
    // Random single- and multi-bit flips.
    for (int flip = 0; flip < 200; ++flip) {
      auto damaged = bytes;
      for (auto k = 1 + rng.next_below(3); k > 0; --k) {
        damaged[rng.next_below(damaged.size())] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
      }
      check(damaged);
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST_P(EncodedLogProperty, BytePrefixAgreesWithEntrywiseEquality) {
  Rng rng(GetParam() * 13 + 3);
  int prefixes = 0;
  int non_prefixes = 0;
  for (int round = 0; round < 200; ++round) {
    RollbackLog base;
    std::uint32_t next_sp = 1;
    for (auto n = rng.next_below(8); n > 0; --n) {
      base.push(random_entry(rng, next_sp));
    }
    RollbackLog cur = base;
    // Forward progress, a rollback that rewrote the tail, or GC.
    switch (rng.next_below(4)) {
      case 0:
        break;
      case 1:
        for (auto n = rng.next_below(3); n > 0 && !cur.empty(); --n) {
          (void)cur.pop();
        }
        [[fallthrough]];
      case 2:
        for (auto n = rng.next_below(4); n > 0; --n) {
          cur.push(random_entry(rng, next_sp));
        }
        break;
      default:
        (void)cur.gc_savepoint(SavepointId(
            static_cast<std::uint32_t>(1 + rng.next_below(next_sp))));
        break;
    }
    // Re-pushing an equal entry after a pop must count as a prefix too.
    if (!base.empty() && rng.next_bool(0.2)) {
      cur = base;
      const auto last = cur.pop();
      cur.push(last);
    }
    const auto b = base.entries();
    const auto c = cur.entries();
    const bool entrywise =
        c.size() >= b.size() && std::equal(b.begin(), b.end(), c.begin());
    EXPECT_EQ(base.is_prefix_of(cur), entrywise) << "round " << round;
    (entrywise ? prefixes : non_prefixes)++;
  }
  EXPECT_GT(prefixes, 0);
  EXPECT_GT(non_prefixes, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodedLogProperty,
                         ::testing::Values(5, 97, 4242));

}  // namespace
}  // namespace mar::rollback
