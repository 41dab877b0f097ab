// Unit tests for the serialization framework: codec primitives, Value, and
// the ValuePatch diff/apply/compose calculus used by transition logging.
#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "serial/decoder.h"
#include "serial/encoder.h"
#include "serial/serializable.h"
#include "serial/value.h"
#include "util/rng.h"

namespace mar::serial {
namespace {

TEST(EncoderTest, FixedWidthRoundTrip) {
  Encoder enc;
  enc.write_u8(0xab);
  enc.write_u16(0xbeef);
  enc.write_u32(0xdeadbeef);
  enc.write_u64(0x0123456789abcdefULL);
  enc.write_bool(true);
  enc.write_bool(false);
  enc.write_double(3.25);

  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.read_u8(), 0xab);
  EXPECT_EQ(dec.read_u16(), 0xbeef);
  EXPECT_EQ(dec.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(dec.read_u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(dec.read_bool());
  EXPECT_FALSE(dec.read_bool());
  EXPECT_EQ(dec.read_double(), 3.25);
  dec.expect_end();
}

TEST(EncoderTest, ReserveHintMakesEncodeSingleAllocation) {
  Value v = Value::empty_map();
  for (int i = 0; i < 64; ++i) {
    v.set("key-" + std::to_string(i), std::string(100, 'x'));
  }
  Encoder enc(v.encoded_size());
  const auto* before = enc.buffer().data();
  const auto cap = enc.buffer().capacity();
  v.serialize(enc);
  EXPECT_EQ(enc.size(), v.encoded_size());
  EXPECT_EQ(enc.buffer().capacity(), cap);      // never grew
  EXPECT_EQ(enc.buffer().data(), before);       // never reallocated
}

TEST(EncoderTest, ReserveGrowsGeometrically) {
  Encoder enc;
  enc.reserve(100);
  const auto cap1 = enc.buffer().capacity();
  EXPECT_GE(cap1, 100u);
  enc.reserve(cap1 + 1);  // slightly over: geometric, not exact, growth
  EXPECT_GE(enc.buffer().capacity(), cap1 + cap1 / 2);
}

TEST(DecoderTest, ReadStringViewIsZeroCopyAndMatches) {
  Encoder enc;
  enc.write_string("type.name");
  enc.write_u32(7);
  Decoder dec(enc.buffer());
  const auto view = dec.read_string_view();
  EXPECT_EQ(view, "type.name");
  // The view aliases the encoder's buffer, not a copy.
  EXPECT_GE(reinterpret_cast<const std::uint8_t*>(view.data()),
            enc.buffer().data());
  EXPECT_LT(reinterpret_cast<const std::uint8_t*>(view.data()),
            enc.buffer().data() + enc.buffer().size());
  EXPECT_EQ(dec.read_u32(), 7u);
  dec.expect_end();
}

TEST(EncoderTest, VarintBoundaries) {
  for (std::uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull, 0xffffffffull,
        0xffffffffffffffffull}) {
    Encoder enc;
    enc.write_varint(v);
    Decoder dec(enc.buffer());
    EXPECT_EQ(dec.read_varint(), v);
    dec.expect_end();
  }
}

TEST(EncoderTest, VarintIsCompactForSmallValues) {
  Encoder enc;
  enc.write_varint(5);
  EXPECT_EQ(enc.size(), 1u);
  enc.clear();
  enc.write_varint(300);
  EXPECT_EQ(enc.size(), 2u);
}

TEST(EncoderTest, ZigzagSignedRoundTrip) {
  for (std::int64_t v :
       std::initializer_list<std::int64_t>{0, 1, -1, 63, -64, 1'000'000,
                                           -1'000'000, INT64_MAX, INT64_MIN}) {
    Encoder enc;
    enc.write_i64(v);
    Decoder dec(enc.buffer());
    EXPECT_EQ(dec.read_i64(), v) << v;
    dec.expect_end();
  }
}

TEST(EncoderTest, StringAndBytes) {
  Encoder enc;
  enc.write_string("hello");
  enc.write_string("");
  Bytes blob = {1, 2, 3, 255};
  enc.write_bytes(blob);
  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.read_string(), "hello");
  EXPECT_EQ(dec.read_string(), "");
  EXPECT_EQ(dec.read_bytes(), blob);
  dec.expect_end();
}

TEST(DecoderTest, OutOfBoundsThrows) {
  Encoder enc;
  enc.write_u16(7);
  Decoder dec(enc.buffer());
  (void)dec.read_u8();
  (void)dec.read_u8();
  EXPECT_THROW((void)dec.read_u8(), DecodeError);
}

TEST(DecoderTest, TruncatedStringThrows) {
  Encoder enc;
  enc.write_varint(100);  // claims 100 bytes follow
  enc.write_u8('x');
  Decoder dec(enc.buffer());
  EXPECT_THROW((void)dec.read_string(), DecodeError);
}

TEST(DecoderTest, ExpectEndDetectsTrailingBytes) {
  Encoder enc;
  enc.write_u32(1);
  Decoder dec(enc.buffer());
  (void)dec.read_u16();
  EXPECT_THROW(dec.expect_end(), DecodeError);
}

TEST(DecoderTest, OverlongVarintThrows) {
  Bytes overlong(11, 0x80);
  Decoder dec(overlong);
  EXPECT_THROW((void)dec.read_varint(), DecodeError);
}

TEST(DecoderTest, CountWithinRemainingBufferPasses) {
  Encoder enc;
  enc.write_varint(3);
  for (std::uint8_t b : {1, 2, 3}) enc.write_u8(b);
  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.read_count(), 3u);
}

TEST(DecoderTest, CountExceedingRemainingBufferThrows) {
  // Every element costs at least one byte on the wire, so a count larger
  // than the remaining payload is malformed regardless of element type.
  Encoder enc;
  enc.write_varint(4);  // claims 4 elements...
  enc.write_u8(0);      // ...but only 1 byte follows
  Decoder dec(enc.buffer());
  EXPECT_THROW((void)dec.read_count(), DecodeError);
}

TEST(DecoderTest, HugeCountThrowsBeforeAllocation) {
  // A corrupted length prefix decoding to ~2^64 must be rejected inside
  // read_count; callers resize containers directly from the returned
  // count, so letting it escape would trigger a gigantic allocation.
  Encoder enc;
  enc.write_varint(UINT64_MAX);
  Decoder dec(enc.buffer());
  EXPECT_THROW((void)dec.read_count(), DecodeError);
}

TEST(DecoderTest, CorruptedValueListCountIsRejectedStructurally) {
  // End-to-end: inflate the element count inside an encoded Value list and
  // check the decode fails with DecodeError instead of over-allocating.
  Value list = Value::empty_list();
  list.push_back(1);
  auto bytes = to_bytes(list);
  // Wire layout: [kind tag u8][count varint]...; a 1-element list encodes
  // the count in one byte, so bump it past the remaining payload.
  bytes[1] = 0x7f;
  EXPECT_THROW((void)from_bytes<Value>(bytes), DecodeError);
}

// --------------------------------------------------------------------------
// Value
// --------------------------------------------------------------------------

Value sample_value() {
  Value v = Value::empty_map();
  v.set("b", true);
  v.set("i", std::int64_t{-42});
  v.set("d", 2.5);
  v.set("s", "text");
  v.set("bytes", Bytes{9, 8, 7});
  Value list = Value::empty_list();
  list.push_back(1);
  list.push_back("two");
  Value nested = Value::empty_map();
  nested.set("x", 1);
  list.push_back(nested);
  v.set("list", std::move(list));
  return v;
}

TEST(ValueTest, KindsAndAccessors) {
  const Value v = sample_value();
  EXPECT_TRUE(v.is_map());
  EXPECT_TRUE(v.at("b").as_bool());
  EXPECT_EQ(v.at("i").as_int(), -42);
  EXPECT_EQ(v.at("d").as_real(), 2.5);
  EXPECT_EQ(v.at("s").as_string(), "text");
  EXPECT_EQ(v.at("bytes").as_bytes().size(), 3u);
  EXPECT_EQ(v.at("list").size(), 3u);
  EXPECT_EQ(v.get_or("missing", Value(7)).as_int(), 7);
  EXPECT_FALSE(v.has("missing"));
}

TEST(ValueTest, AccessorKindMismatchChecks) {
  const Value v(std::int64_t{1});
  EXPECT_THROW((void)v.as_string(), LogicError);
  EXPECT_THROW((void)v.as_map(), LogicError);
}

TEST(ValueTest, SerializationRoundTrip) {
  const Value v = sample_value();
  auto bytes = to_bytes(v);
  auto back = from_bytes<Value>(bytes);
  EXPECT_EQ(v, back);
  EXPECT_EQ(v.encoded_size(), bytes.size());
}

TEST(ValueTest, NullAndEmptyRoundTrip) {
  for (const Value& v : {Value{}, Value::empty_list(), Value::empty_map()}) {
    EXPECT_EQ(from_bytes<Value>(to_bytes(v)), v);
  }
}

TEST(ValueTest, OrderingIsTotal) {
  EXPECT_LT(Value(1), Value(2));
  EXPECT_NE(Value(1), Value("1"));
  EXPECT_EQ(Value("a"), Value("a"));
}

// Reals compare bit for bit, and `<` agrees with `==`: for any a, b
// exactly one of a < b, b < a, a == b holds.
TEST(ValueTest, RealEqualityIsBitExactAndOrderingAgrees) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(Value(0.0), Value(-0.0));
  EXPECT_EQ(Value(nan), Value(nan));
  const std::vector<Value> reals = {Value(-1.5), Value(-0.0), Value(0.0),
                                    Value(2.0), Value(nan), Value(-nan)};
  for (const auto& a : reals) {
    for (const auto& b : reals) {
      const int holds = (a < b) + (b < a) + (a == b);
      EXPECT_EQ(holds, 1) << a.to_string() << " vs " << b.to_string();
    }
  }
  EXPECT_LT(Value(-0.0), Value(0.0));
  // Inside containers too: a map differing only in a zero's sign differs.
  Value m = Value::empty_map();
  m.set("x", 0.0);
  Value neg = Value::empty_map();
  neg.set("x", -0.0);
  EXPECT_NE(m, neg);
  EXPECT_TRUE(m < neg || neg < m);
}

TEST(ValueTest, SetOnNullPromotesToMap) {
  Value v;
  v.set("k", 1);
  EXPECT_TRUE(v.is_map());
  EXPECT_EQ(v.at("k").as_int(), 1);
}

TEST(ValueTest, PushBackOnNullPromotesToList) {
  Value v;
  v.push_back("x");
  EXPECT_TRUE(v.is_list());
  EXPECT_EQ(v.size(), 1u);
}

TEST(ValueTest, ToStringIsReadable) {
  Value v = Value::empty_map();
  v.set("n", 3);
  EXPECT_EQ(v.to_string(), "{\"n\":3}");
}

// --------------------------------------------------------------------------
// ValuePatch: diff / apply / compose
// --------------------------------------------------------------------------

TEST(PatchTest, DiffIdenticalIsNone) {
  const Value v = sample_value();
  EXPECT_TRUE(diff(v, v).is_none());
}

TEST(PatchTest, DiffApplyRestoresTarget) {
  Value from = sample_value();
  Value to = sample_value();
  to.set("i", std::int64_t{100});
  to.erase("s");
  to.set("new_key", "fresh");
  const auto patch = diff(from, to);
  EXPECT_EQ(apply(patch, from), to);
}

// Transition logging must restore a savepoint bit for bit: a change of
// a zero's sign or of a NaN's payload is a change.
TEST(PatchTest, DiffApplyKeepsSignedZeroAndNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<double, double>> cases = {
      {0.0, -0.0}, {-0.0, 0.0}, {nan, -nan}, {1.0, nan}, {nan, 1.0}};
  for (const auto& [before, after] : cases) {
    Value from = Value::empty_map();
    from.set("x", before);
    Value to = Value::empty_map();
    to.set("x", after);
    const auto patch = diff(from, to);
    EXPECT_FALSE(patch.is_none()) << from.to_string();
    EXPECT_EQ(to_bytes(apply(patch, from)), to_bytes(to));
    // And back: the savepoint direction.
    EXPECT_EQ(to_bytes(apply(diff(to, from), to)), to_bytes(from));
  }
  Value same = Value::empty_map();
  same.set("x", nan);
  EXPECT_TRUE(diff(same, same).is_none());
}

TEST(PatchTest, MapDiffIsSparse) {
  // Changing one key of a large map must not encode the whole map.
  Value big = Value::empty_map();
  for (int i = 0; i < 200; ++i) {
    big.set("key" + std::to_string(i), std::string(50, 'x'));
  }
  Value changed = big;
  changed.set("key7", "different");
  const auto patch = diff(big, changed);
  EXPECT_LT(patch.encoded_size(), big.encoded_size() / 10);
}

TEST(PatchTest, NestedMapDiffRecurses) {
  Value from = Value::empty_map();
  Value inner = Value::empty_map();
  inner.set("a", 1);
  inner.set("b", 2);
  from.set("inner", inner);
  Value to = from;
  to.as_map().at("inner").set("b", 3);
  const auto patch = diff(from, to);
  EXPECT_EQ(apply(patch, from), to);
  // Only the changed key is carried.
  EXPECT_EQ(patch.entries().size(), 1u);
  EXPECT_EQ(patch.entries().at("inner").entries().size(), 1u);
}

TEST(PatchTest, WholeValueReplacementForNonMaps) {
  const auto patch = diff(Value(1), Value("two"));
  EXPECT_EQ(patch.kind(), ValuePatch::Kind::set);
  EXPECT_EQ(apply(patch, Value(1)), Value("two"));
}

TEST(PatchTest, SerializationRoundTrip) {
  Value from = sample_value();
  Value to = sample_value();
  to.set("i", std::int64_t{7});
  to.erase("b");
  const auto patch = diff(from, to);
  auto back = from_bytes<ValuePatch>(to_bytes(patch));
  EXPECT_EQ(back, patch);
  EXPECT_EQ(apply(back, from), to);
}

Value random_value(Rng& rng, int depth) {
  switch (rng.next_below(depth > 0 ? 6 : 4)) {
    case 0: return Value{};
    case 1: return Value(rng.next_bool());
    case 2: return Value(rng.next_in(-1000, 1000));
    case 3: return Value("s" + std::to_string(rng.next_below(10)));
    case 4: {
      Value list = Value::empty_list();
      const auto n = rng.next_below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        list.push_back(random_value(rng, depth - 1));
      }
      return list;
    }
    default: {
      Value map = Value::empty_map();
      const auto n = rng.next_below(5);
      for (std::uint64_t i = 0; i < n; ++i) {
        map.set("k" + std::to_string(rng.next_below(6)),
                random_value(rng, depth - 1));
      }
      return map;
    }
  }
}

class PatchPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PatchPropertyTest, DiffThenApplyIsIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const Value a = random_value(rng, 3);
    const Value b = random_value(rng, 3);
    EXPECT_EQ(apply(diff(a, b), a), b)
        << "a=" << a.to_string() << " b=" << b.to_string();
  }
}

TEST_P(PatchPropertyTest, ComposeMatchesSequentialApplication) {
  // apply(compose(p, q), S) == apply(q, apply(p, S)) — the property that
  // makes savepoint GC under transition logging correct (Sec. 4.4.2).
  Rng rng(GetParam() * 7919 + 1);
  for (int i = 0; i < 200; ++i) {
    const Value a = random_value(rng, 3);
    const Value b = random_value(rng, 3);
    const Value c = random_value(rng, 3);
    const auto p = diff(a, b);
    const auto q = diff(b, c);
    EXPECT_EQ(apply(compose(p, q), a), c)
        << "a=" << a.to_string() << " b=" << b.to_string()
        << " c=" << c.to_string();
  }
}

TEST_P(PatchPropertyTest, SerializationRoundTripRandom) {
  Rng rng(GetParam() * 104729 + 3);
  for (int i = 0; i < 100; ++i) {
    const Value v = random_value(rng, 4);
    EXPECT_EQ(from_bytes<Value>(to_bytes(v)), v);
  }
}

TEST_P(PatchPropertyTest, ComposeOfIndependentPatches) {
  // The full Sec. 4.4.2 GC-merge property over arbitrary random trees:
  // apply(compose(d1, d2), a) == apply(d2, apply(d1, a)) must hold for
  // INDEPENDENT patches and an unrelated base — not only for diff chains
  // that share their intermediate state. compose() is total (a map patch
  // after remove/non-map starts from an empty map), so no case is exempt.
  Rng rng(GetParam() * 15485863 + 11);
  for (int i = 0; i < 200; ++i) {
    const Value a = random_value(rng, 3);
    const auto d1 = diff(random_value(rng, 3), random_value(rng, 3));
    const auto d2 = diff(random_value(rng, 3), random_value(rng, 3));
    EXPECT_EQ(apply(compose(d1, d2), a), apply(d2, apply(d1, a)))
        << "a=" << a.to_string() << " d1=" << d1.to_string()
        << " d2=" << d2.to_string();
  }
}

TEST_P(PatchPropertyTest, EncodedSizeMatchesWireSize) {
  // encoded_size() is computed arithmetically (the pre-sizing hot path);
  // it must agree with the actual encoder output on every shape.
  Rng rng(GetParam() * 6700417 + 29);
  for (int i = 0; i < 100; ++i) {
    const Value v = random_value(rng, 4);
    EXPECT_EQ(v.encoded_size(), to_bytes(v).size()) << v.to_string();
    const auto patch = diff(random_value(rng, 3), random_value(rng, 3));
    EXPECT_EQ(patch.encoded_size(), to_bytes(patch).size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatchPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// --------------------------------------------------------------------------
// TypeRegistry
// --------------------------------------------------------------------------

struct Base {
  virtual ~Base() = default;
  int x = 0;
};
struct DerivedA : Base {};
struct DerivedB : Base {};
struct DerivedOfA : DerivedA {};

TEST(TypeRegistryTest, CreatesRegisteredTypes) {
  TypeRegistry<Base> reg;
  reg.register_type<DerivedA>("a");
  reg.register_type<DerivedB>("b");
  EXPECT_TRUE(reg.contains("a"));
  EXPECT_FALSE(reg.contains("c"));
  auto obj = reg.create("a");
  EXPECT_NE(dynamic_cast<DerivedA*>(obj.get()), nullptr);
}

TEST(TypeRegistryTest, CopiesThroughTheRegisteredType) {
  TypeRegistry<Base> reg;
  reg.register_type<DerivedA>("a");
  reg.register_type<DerivedB>("b");
  DerivedB src;
  src.x = 42;
  auto copy = reg.copy("b", src);
  ASSERT_NE(dynamic_cast<DerivedB*>(copy.get()), nullptr);
  EXPECT_EQ(copy->x, 42);
  EXPECT_NE(copy.get(), &src);
  copy->x = 7;
  EXPECT_EQ(src.x, 42);
}

TEST(TypeRegistryTest, CopyChecksNameAndDynamicType) {
  TypeRegistry<Base> reg;
  reg.register_type<DerivedA>("a");
  const DerivedB b;
  EXPECT_THROW((void)reg.copy("b", b), LogicError);  // unregistered name
  EXPECT_THROW((void)reg.copy("a", b), LogicError);  // another type
  // A subclass of a registered type is not that type: slicing it would
  // drop its own state.
  const DerivedOfA sub;
  EXPECT_THROW((void)reg.copy("a", sub), LogicError);
}

TEST(TypeRegistryTest, DuplicateRegistrationChecks) {
  TypeRegistry<Base> reg;
  reg.register_type<DerivedA>("a");
  EXPECT_THROW(reg.register_type<DerivedB>("a"), LogicError);
}

TEST(TypeRegistryTest, UnknownTypeChecks) {
  TypeRegistry<Base> reg;
  EXPECT_THROW((void)reg.create("nope"), LogicError);
}

}  // namespace
}  // namespace mar::serial
