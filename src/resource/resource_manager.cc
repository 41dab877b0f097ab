#include "resource/resource_manager.h"

#include <algorithm>

#include "serial/decoder.h"
#include "serial/encoder.h"
#include "serial/serializable.h"
#include "util/check.h"

namespace mar::resource {

namespace {

constexpr std::string_view kWholeInstance = "*";

// --- unit algebra ----------------------------------------------------------
// A unit is "*" (whole instance), "slot" (whole top-level slot) or
// "slot/sub" (one entry of a map-typed slot; only the FIRST '/' separates,
// so subs may contain '/' themselves, e.g. exchange pairs "EUR/USD").

std::string_view unit_slot(std::string_view unit) {
  const auto pos = unit.find('/');
  return pos == std::string_view::npos ? unit : unit.substr(0, pos);
}

std::string_view unit_sub(std::string_view unit) {
  const auto pos = unit.find('/');
  return pos == std::string_view::npos ? std::string_view{}
                                       : unit.substr(pos + 1);
}

/// Does locking/overlaying `a` subsume `b`?
bool unit_covers(std::string_view a, std::string_view b) {
  if (a == kWholeInstance) return true;
  if (b == kWholeInstance) return false;
  if (unit_slot(a) != unit_slot(b)) return false;
  return unit_sub(a).empty() || a == b;
}

bool units_overlap(std::string_view a, std::string_view b) {
  return unit_covers(a, b) || unit_covers(b, a);
}

/// Drop duplicates and units covered by another unit in the set; a covered
/// write promotes its coverer to write.
void normalize_units(std::vector<KeyRef>& units) {
  std::vector<KeyRef> out;
  for (auto& u : units) {
    bool absorbed = false;
    for (auto& v : out) {
      if (unit_covers(v.unit, u.unit)) {
        v.write = v.write || u.write;
        absorbed = true;
        break;
      }
    }
    if (absorbed) continue;
    // u may in turn cover earlier units: absorb them into u.
    std::erase_if(out, [&u](const KeyRef& v) {
      if (!unit_covers(u.unit, v.unit)) return false;
      u.write = u.write || v.write;
      return true;
    });
    out.push_back(std::move(u));
  }
  units = std::move(out);
}

}  // namespace

void ResourceManager::add_resource(const std::string& name,
                                   std::unique_ptr<Resource> logic) {
  MAR_CHECK_MSG(!instances_.contains(name), "duplicate resource " << name);
  Value state = logic->initial_state();
  instances_.emplace(name, Instance{std::move(logic), std::move(state)});
}

bool ResourceManager::has_resource(const std::string& name) const {
  return instances_.contains(name);
}

// ---------------------------------------------------------------------------
// Key machinery
// ---------------------------------------------------------------------------

ResourceManager::KeySlice ResourceManager::read_unit(
    const Value& root, std::string_view unit) {
  if (unit == kWholeInstance) return {root, true, false};
  const auto slot = unit_slot(unit);
  const auto sub = unit_sub(unit);
  if (!root.has(slot)) return {Value(), false, false};
  const Value& sv = root.at(slot);
  if (sub.empty()) return {sv, true, false};
  if (!sv.is_map() || !sv.has(sub)) return {Value(), false, false};
  return {sv.at(sub), true, false};
}

ResourceManager::KeySlice ResourceManager::committed_slice(
    const Instance& inst, const std::string& unit) const {
  const auto sub = unit_sub(unit);
  if (!sub.empty() && inst.state.has(unit_slot(unit))) {
    MAR_CHECK_MSG(inst.state.at(unit_slot(unit)).is_map(),
                  "key-set declares sub-key of non-map slot "
                      << unit_slot(unit));
  }
  return read_unit(inst.state, unit);
}

void ResourceManager::fold_into(const Instance& inst,
                                std::map<std::string, KeySlice>& res_slices,
                                const std::string& unit) {
  // Merge every existing slice the (wider) `unit` covers into one slice at
  // `unit`, so the tx's units stay pairwise non-overlapping.
  std::vector<std::string> covered;
  for (const auto& [v, slice] : res_slices) {
    if (v != unit && unit_covers(unit, v)) covered.push_back(v);
  }
  if (covered.empty()) return;
  MAR_DCHECK(!res_slices.contains(unit));  // would overlap `covered`
  KeySlice merged = committed_slice(inst, unit);
  for (const auto& v : covered) {
    KeySlice& s = res_slices.at(v);
    merged.dirty = merged.dirty || s.dirty;
    if (unit == kWholeInstance && unit_sub(v).empty()) {
      if (s.present) {
        merged.value.set(unit_slot(v), std::move(s.value));
      } else {
        merged.value.erase(unit_slot(v));
      }
    } else {
      // Covered unit is "slot/sub"; merged is "*" or "slot".
      const auto slot = unit_slot(v);
      Value* target = &merged.value;
      if (unit == kWholeInstance) {
        if (!merged.value.has(slot)) merged.value.set(slot, Value::empty_map());
        target = &merged.value.as_map().at(std::string(slot));
      } else if (!merged.present) {
        merged.value = Value::empty_map();
        merged.present = true;
      }
      if (s.present) {
        target->set(unit_sub(v), std::move(s.value));
      } else {
        target->erase(unit_sub(v));
      }
    }
    res_slices.erase(v);
  }
  res_slices.emplace(unit, std::move(merged));
}

Status ResourceManager::acquire_key_locks(TxId tx, const std::string& resource,
                                          const std::vector<KeyRef>& units) {
  // All-or-nothing, no waiting: check every requested unit against every
  // held overlapping unit first, then record the grants.
  auto tit = key_locks_.find(resource);
  if (tit != key_locks_.end()) {
    for (const auto& u : units) {
      for (const auto& [held, l] : tit->second) {
        if (!units_overlap(u.unit, held)) continue;
        if (l.writer.valid() && l.writer != tx) {
          if (audit_) audit_->on_conflict(tx, l.writer);
          return Status(Errc::lock_conflict,
                        "resource " + resource + " key " + u.unit +
                            " locked by tx " + std::to_string(l.writer.value()));
        }
        if (u.write) {
          for (const TxId r : l.readers) {
            if (r != tx) {
              if (audit_) audit_->on_conflict(tx, r);
              return Status(Errc::lock_conflict,
                            "resource " + resource + " key " + u.unit +
                                " read-locked by tx " +
                                std::to_string(r.value()));
            }
          }
        }
      }
    }
  }
  auto& table = key_locks_[resource];
  for (const auto& u : units) {
    auto& l = table[u.unit];
    if (u.write) {
      l.writer = tx;
    } else {
      l.readers.insert(tx);
    }
    if (audit_) audit_->on_acquire(tx, resource, u.unit);
  }
  return Status::ok();
}

Result<Value> ResourceManager::invoke(TxId tx, const std::string& resource,
                                      std::string_view op,
                                      const Value& params) {
  auto it = instances_.find(resource);
  if (it == instances_.end()) {
    return Status(Errc::not_found, "no such resource: " + resource);
  }
  Instance& inst = it->second;
  // Strict locking, no waiting: a conflict aborts the caller's
  // transaction, which the platform restarts later (Sec. 2 abort/restart).
  KeySet ks = inst.logic->key_set(op, params);
  std::vector<KeyRef> units;
  if (ks.whole_instance || ks.keys.empty()) {
    // Whole-instance access is one exclusive "*" key: it conflicts with
    // every other lock on the instance.
    units.push_back(KeyRef{std::string(kWholeInstance), true});
  } else {
    units = std::move(ks.keys);
    normalize_units(units);
  }

  // Widen requested units to any covering unit this tx already staged, so
  // the operation sees (and writes back through) its own earlier effects.
  auto oit = overlays_.find(tx);
  if (oit != overlays_.end()) {
    auto rit = oit->second.slices.find(resource);
    if (rit != oit->second.slices.end()) {
      for (auto& u : units) {
        for (const auto& [held_unit, slice] : rit->second) {
          if (held_unit != u.unit && unit_covers(held_unit, u.unit)) {
            u.unit = held_unit;
            break;
          }
        }
      }
      normalize_units(units);
    }
  }

  MAR_RETURN_IF_ERROR(acquire_key_locks(tx, resource, units));

  auto& res_slices = overlays_[tx].slices[resource];
  // The other direction of widening: a requested unit may cover slices
  // staged earlier at finer grain — fold them so units stay disjoint.
  for (const auto& u : units) fold_into(inst, res_slices, u.unit);

  // Materialize the sparse working state: exactly the declared units,
  // each read through the overlay (repeatable reads within the tx). The
  // materialized slice doubles as the pre-op snapshot for change
  // detection, so each unit is copied once into `working` and kept.
  Value working = Value::empty_map();
  std::map<std::string, KeySlice> before;
  for (const auto& u : units) {
    auto sit = res_slices.find(u.unit);
    KeySlice slice = sit != res_slices.end() ? sit->second
                                             : committed_slice(inst, u.unit);
    if (u.unit == kWholeInstance) {
      working = slice.value;
      before.emplace(u.unit, std::move(slice));
      break;  // normalize_units guarantees "*" is alone
    }
    const auto slot = unit_slot(u.unit);
    const auto sub = unit_sub(u.unit);
    if (sub.empty()) {
      if (slice.present) working.set(slot, slice.value);
    } else {
      if (!working.has(slot)) working.set(slot, Value::empty_map());
      if (slice.present) {
        working.as_map().at(std::string(slot)).set(sub, slice.value);
      }
    }
    before.emplace(u.unit, std::move(slice));
  }

  auto result = inst.logic->invoke(op, params, working);
  if (!result.is_ok()) {
    // Failed operations leave no trace in the overlay (the working copy is
    // discarded); acquired locks are held to tx end.
    return result;
  }

  // Declaration audit: everything the operation created or changed must be
  // covered by a declared write unit — undeclared effects would silently
  // vanish at commit.
  if (units.front().unit != kWholeInstance) {
    for (const auto& [slot, sv] : working.as_map()) {
      bool slot_declared = false;
      bool sub_only = true;
      for (const auto& u : units) {
        if (unit_slot(u.unit) != slot) continue;
        slot_declared = true;
        sub_only = sub_only && !unit_sub(u.unit).empty();
      }
      MAR_CHECK_MSG(slot_declared,
                    "resource " << resource << " op " << op
                                << " touched undeclared slot " << slot);
      if (!sub_only) continue;
      MAR_CHECK_MSG(sv.is_map(), "resource " << resource << " op " << op
                                             << " replaced keyed slot "
                                             << slot << " wholesale");
      for (const auto& [sub, ignored] : sv.as_map()) {
        (void)ignored;
        const std::string full = slot + "/" + sub;
        const bool declared =
            std::any_of(units.begin(), units.end(), [&full](const KeyRef& u) {
              return u.unit == full;
            });
        MAR_CHECK_MSG(declared, "resource " << resource << " op " << op
                                            << " touched undeclared key "
                                            << full);
      }
    }
  }

  for (const auto& u : units) {
    KeySlice after = read_unit(working, u.unit);
    const KeySlice& prev = before.at(u.unit);
    const bool changed =
        after.present != prev.present ||
        (after.present && !(after.value == prev.value));
    MAR_CHECK_MSG(!changed || u.write, "resource " << resource << " op " << op
                                                   << " wrote read-only key "
                                                   << u.unit);
    auto sit = res_slices.find(u.unit);
    const bool was_dirty = sit != res_slices.end() && sit->second.dirty;
    res_slices[u.unit] =
        KeySlice{std::move(after.value), after.present, changed || was_dirty};
  }
  return result;
}

// ---------------------------------------------------------------------------
// Committed state, locks
// ---------------------------------------------------------------------------

const Value& ResourceManager::committed_state(const std::string& name) const {
  auto it = instances_.find(name);
  MAR_CHECK_MSG(it != instances_.end(), "no such resource " << name);
  return it->second.state;
}

void ResourceManager::poke_state(const std::string& name, Value state) {
  auto it = instances_.find(name);
  MAR_CHECK_MSG(it != instances_.end(), "no such resource " << name);
  it->second.state = std::move(state);
}

bool ResourceManager::locked(const std::string& name) const {
  auto it = key_locks_.find(name);
  return it != key_locks_.end() && !it->second.empty();
}

bool ResourceManager::locked_key(const std::string& name,
                                 const std::string& unit) const {
  auto it = key_locks_.find(name);
  if (it == key_locks_.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(),
                     [&unit](const auto& kv) {
                       return units_overlap(kv.first, unit);
                     });
}

// ---------------------------------------------------------------------------
// Participant interface
// ---------------------------------------------------------------------------

bool ResourceManager::has_tx(TxId tx) const { return overlays_.contains(tx); }

bool ResourceManager::prepare(TxId tx) {
  auto it = overlays_.find(tx);
  if (it == overlays_.end()) return false;
  if (it->second.prepared) return true;  // idempotent
  // Only dirty slices need to survive a crash; the write path pays
  // O(touched keys), not O(instance state). The counting pass doubles as
  // the size pass, so the marker is one allocation.
  std::size_t dirty = 0;
  std::size_t bytes = 0;
  for (const auto& [resource, res_slices] : it->second.slices) {
    for (const auto& [unit, slice] : res_slices) {
      if (!slice.dirty) continue;
      ++dirty;
      bytes += serial::blob_size(resource.size()) +
               serial::blob_size(unit.size()) + 1 +
               (slice.present ? slice.value.encoded_size() : 0);
    }
  }
  serial::Encoder enc;
  enc.reserve(serial::varint_size(dirty) + bytes);
  enc.write_varint(dirty);
  for (const auto& [resource, res_slices] : it->second.slices) {
    for (const auto& [unit, slice] : res_slices) {
      if (!slice.dirty) continue;
      enc.write_string(resource);
      enc.write_string(unit);
      enc.write_bool(slice.present);
      if (slice.present) slice.value.serialize(enc);
    }
  }
  stable_.put(prep_key(tx), std::move(enc).take());
  it->second.prepared = true;
  return true;
}

void ResourceManager::commit(TxId tx) {
  auto it = overlays_.find(tx);
  if (it == overlays_.end()) return;  // idempotent
  for (auto& [resource, res_slices] : it->second.slices) {
    auto iit = instances_.find(resource);
    MAR_DCHECK(iit != instances_.end());
    Value& state = iit->second.state;
    for (auto& [unit, slice] : res_slices) {
      // Read-only access writes nothing back (and costs no stable I/O).
      if (!slice.dirty) continue;
      // Committed resource state is durable (models the resource's DB) —
      // metered per key, so a one-account commit pays one account's bytes.
      serial::Bytes durable =
          slice.present ? serial::to_bytes(slice.value) : serial::Bytes{};
      if (unit == kWholeInstance) {
        state = std::move(slice.value);
        stable_.put("res:" + resource, std::move(durable));
        continue;
      }
      const auto slot = unit_slot(unit);
      const auto sub = unit_sub(unit);
      if (sub.empty()) {
        if (slice.present) {
          state.set(slot, std::move(slice.value));
        } else {
          state.erase(slot);
        }
      } else {
        if (!state.has(slot)) state.set(slot, Value::empty_map());
        Value& sv = state.as_map().at(std::string(slot));
        if (slice.present) {
          sv.set(sub, std::move(slice.value));
        } else {
          sv.erase(sub);
        }
      }
      stable_.put("res:" + resource + "/" + unit, std::move(durable));
    }
  }
  if (it->second.prepared) stable_.erase(prep_key(tx));
  overlays_.erase(it);
  release_locks(tx);
}

void ResourceManager::abort(TxId tx) {
  // Drops the whole staging for the transaction — including per-key
  // overlay slices — together with its locks: an aborted invoke must
  // leave neither lock nor slice behind.
  overlays_.erase(tx);
  stable_.erase(prep_key(tx));
  release_locks(tx);
}

void ResourceManager::release_locks(TxId tx) {
  if (audit_) audit_->on_release(tx);
  for (auto rit = key_locks_.begin(); rit != key_locks_.end();) {
    auto& table = rit->second;
    for (auto uit = table.begin(); uit != table.end();) {
      UnitLock& l = uit->second;
      if (l.writer == tx) l.writer = TxId::invalid();
      l.readers.erase(tx);
      if (!l.writer.valid() && l.readers.empty()) {
        uit = table.erase(uit);
      } else {
        ++uit;
      }
    }
    if (table.empty()) {
      rit = key_locks_.erase(rit);
    } else {
      ++rit;
    }
  }
}

void ResourceManager::on_crash() {
  // All in-flight overlays and locks are volatile; prepared overlays are
  // reloaded from stable storage and their locks re-acquired (a prepared
  // participant must keep isolating its writes until the decision).
  overlays_.clear();
  key_locks_.clear();
  if (audit_) audit_->reset();
  stable_.for_each_with_prefix("prep.res:", [this](const std::string& key,
                                                   const serial::Bytes&
                                                       bytes) {
    const TxId tx(std::stoull(key.substr(9)));
    serial::Decoder dec(bytes);
    Overlay o;
    o.prepared = true;
    const auto n = dec.read_varint();
    for (std::uint64_t i = 0; i < n; ++i) {
      auto resource = dec.read_string();
      auto unit = dec.read_string();
      KeySlice slice;
      slice.dirty = true;
      slice.present = dec.read_bool();
      if (slice.present) slice.value.deserialize(dec);
      key_locks_[resource][unit].writer = tx;
      if (audit_) audit_->on_acquire(tx, resource, unit);
      o.slices[resource].emplace(std::move(unit), std::move(slice));
    }
    overlays_.emplace(tx, std::move(o));
  });
}

}  // namespace mar::resource
