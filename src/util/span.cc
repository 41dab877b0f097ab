#include "util/span.h"

#include <algorithm>
#include <iomanip>
#include <iterator>

#include "util/result.h"

namespace mar {

std::string_view to_string(SpanKind k) {
  switch (k) {
    case SpanKind::hop: return "hop";
    case SpanKind::queue_wait: return "queue_wait";
    case SpanKind::lock_wait: return "lock_wait";
    case SpanKind::step_exec: return "step_exec";
    case SpanKind::commit_flush: return "commit_flush";
    case SpanKind::convoy_wait: return "convoy_wait";
    case SpanKind::wire: return "wire";
    case SpanKind::apply: return "apply";
    case SpanKind::instant: return "instant";
  }
  return "?";
}

std::string_view to_string(EventKind k) {
  switch (k) {
    case EventKind::step_begin: return "step_begin";
    case EventKind::step_commit: return "step_commit";
    case EventKind::step_abort: return "step_abort";
    case EventKind::migrate: return "migrate";
    case EventKind::savepoint: return "savepoint";
    case EventKind::rollback_begin: return "rollback_begin";
    case EventKind::comp_begin: return "comp_begin";
    case EventKind::comp_op: return "comp_op";
    case EventKind::comp_commit: return "comp_commit";
    case EventKind::comp_abort: return "comp_abort";
    case EventKind::restore: return "restore";
    case EventKind::rollback_done: return "rollback_done";
    case EventKind::rce_shipped: return "rce_shipped";
    case EventKind::mce_shipped: return "mce_shipped";
    case EventKind::convoy: return "convoy";
    case EventKind::log_discard: return "log_discard";
    case EventKind::sp_gc: return "sp_gc";
    case EventKind::crash: return "crash";
    case EventKind::recover: return "recover";
    case EventKind::tx_pipeline: return "tx_pipeline";
    case EventKind::storage_recovery: return "storage_recovery";
  }
  return "?";
}

namespace {

constexpr std::string_view kCauses[] = {"step", "launch", "rollback",
                                        "cancel", "resume"};
constexpr std::string_view kStages[] = {"decided", "flushed", "acked",
                                        "ckpt_begin", "ckpt_done"};
static_assert(std::size(kCauses) ==
              static_cast<std::size_t>(MigrateCause::resume) + 1);
static_assert(std::size(kStages) ==
              static_cast<std::size_t>(TxStage::ckpt_done) + 1);

/// How an instant's `code` reads (a plain number is omitted when 0).
enum class CodeAs : std::uint8_t { number, errc, cause, stage };

/// Note labels of `value`, `value2` and `code`, by EventKind ("": unused).
struct Layout {
  std::string_view value, value2, code;
  CodeAs as = CodeAs::number;
};
constexpr Layout kLayouts[] = {
    {"record", "", ""},                       // step_begin
    {"record", "", "finished"},               // step_commit
    {"record", "", "cause", CodeAs::errc},    // step_abort
    {"to", "bytes", "cause", CodeAs::cause},  // migrate
    {"sp", "", "flags"},                      // savepoint
    {"sp", "", "completion"},                 // rollback_begin
    {"sp", "", ""},                           // comp_begin
    {"", "", "status", CodeAs::errc},         // comp_op
    {"", "", ""},                             // comp_commit
    {"", "", "cause", CodeAs::errc},          // comp_abort
    {"sp", "", ""},                           // restore
    {"sp", "", "completion"},                 // rollback_done
    {"to", "bytes", ""},                      // rce_shipped
    {"to", "bytes", ""},                      // mce_shipped
    {"to", "bytes", ""},                      // convoy
    {"entries", "", ""},                      // log_discard
    {"sp", "", ""},                           // sp_gc
    {"", "", ""},                             // crash
    {"", "", ""},                             // recover
    {"tx", "", "stage", CodeAs::stage},       // tx_pipeline
    {"replayed_bytes", "segments", ""},       // storage_recovery
};
static_assert(std::size(kLayouts) == kEventKinds);

std::string instant_note(const Span& s) {
  const Layout& l = kLayouts[static_cast<std::size_t>(s.event)];
  std::string out;
  const auto field = [&out](std::string_view label, std::string_view v) {
    if (!out.empty()) out += ' ';
    out.append(label).append("=").append(v);
  };
  if (!l.value.empty()) field(l.value, std::to_string(s.value));
  if (!l.value2.empty()) field(l.value2, std::to_string(s.value2));
  if (l.code.empty()) return out;
  switch (l.as) {
    case CodeAs::number:
      if (s.code != 0) field(l.code, std::to_string(s.code));
      break;
    case CodeAs::errc:
      field(l.code, to_string(static_cast<Errc>(s.code)));
      break;
    case CodeAs::cause: field(l.code, kCauses[s.code]); break;
    case CodeAs::stage: field(l.code, kStages[s.code]); break;
  }
  return out;
}

bool by_id(const Span& a, const Span& b) { return a.span_id < b.span_id; }

}  // namespace

std::string Span::note() const {
  switch (kind) {
    case SpanKind::hop: return code != 0 ? "comp" : "";
    case SpanKind::wire: return std::to_string(value) + " bytes";
    case SpanKind::apply: return code != 0 ? "delta" : "full";
    case SpanKind::instant: return instant_note(*this);
    default: return "";
  }
}

void Span::write_jsonl(std::ostream& os) const {
  os << "{\"trace_id\": " << trace_id << ", \"span_id\": " << span_id
     << ", \"parent\": " << parent << ", \"kind\": \"" << to_string(kind)
     << "\", ";
  if (kind == SpanKind::instant) {
    os << "\"name\": \"" << to_string(event) << "\", ";
  }
  os << "\"node\": " << node << ", \"agent\": " << agent
     << ", \"begin_us\": " << begin_us << ", \"end_us\": " << end_us
     << ", \"note\": \"" << note() << "\"}\n";
}

void SpanSink::store(const Span& span) {
  if (span.node >= rings_.size()) rings_.resize(span.node + 1);
  auto& ring = rings_[span.node];
  if (ring.buf.size() < capacity_) {
    ring.buf.push_back(span);
  } else {
    // Full: overwrite the oldest slot in place — no allocation.
    ring.buf[ring.head] = span;
    ring.head = (ring.head + 1) % ring.buf.size();
  }
}

void SpanSink::record(const Span& span) {
  if (enabled_) store(span);
}

void SpanSink::event(EventKind kind, std::uint32_t node, std::uint64_t agent,
                     std::uint64_t time_us, std::uint64_t value,
                     std::uint64_t value2, std::uint8_t code) {
  const std::size_t slot =
      std::size_t{node} * kEventKinds + static_cast<std::size_t>(kind);
  if (slot >= counts_.size()) add_node(node);  // not added by the platform
  ++counts_[slot];
  if (!enabled_) return;
  Span s;
  s.trace_id = agent;
  s.span_id = next_id_++;
  s.kind = SpanKind::instant;
  s.event = kind;
  s.code = code;
  s.node = node;
  s.agent = agent;
  s.begin_us = time_us;
  s.end_us = time_us;
  s.value = value;
  s.value2 = value2;
  store(s);
}

void SpanSink::add_node(std::uint32_t node) {
  const std::size_t want = (std::size_t{node} + 1) * kEventKinds;
  if (counts_.size() < want) counts_.resize(want);
}

void SpanSink::set_capacity(std::size_t cap) {
  capacity_ = cap;
  rings_.clear();
}

std::uint64_t SpanSink::count(EventKind kind) const {
  std::uint64_t n = 0;
  for (std::size_t i = static_cast<std::size_t>(kind); i < counts_.size();
       i += kEventKinds) {
    n += counts_[i].load();
  }
  return n;
}

std::uint64_t SpanSink::count(EventKind kind, std::uint32_t node) const {
  const std::size_t slot =
      std::size_t{node} * kEventKinds + static_cast<std::size_t>(kind);
  return slot < counts_.size() ? counts_[slot].load() : 0;
}

void SpanSink::append_in_order(const Ring& ring, std::vector<Span>& out) {
  for (std::size_t i = ring.head; i < ring.buf.size(); ++i)
    out.push_back(ring.buf[i]);
  for (std::size_t i = 0; i < ring.head; ++i) out.push_back(ring.buf[i]);
}

std::size_t SpanSink::size() const {
  std::size_t n = 0;
  for (const Ring& ring : rings_) n += ring.buf.size();
  return n;
}

std::vector<Span> SpanSink::spans() const {
  std::vector<Span> out;
  for (const Ring& ring : rings_) append_in_order(ring, out);
  std::sort(out.begin(), out.end(), by_id);
  return out;
}

std::vector<Span> SpanSink::of_kind(SpanKind kind) const {
  std::vector<Span> out;
  for (const Span& s : spans())
    if (s.kind == kind) out.push_back(s);
  return out;
}

std::vector<Span> SpanSink::of_kind(EventKind kind) const {
  std::vector<Span> out;
  for (const Span& s : spans())
    if (s.kind == SpanKind::instant && s.event == kind) out.push_back(s);
  return out;
}

void SpanSink::print(std::ostream& os) const {
  for (const Span& s : spans()) {
    if (s.kind != SpanKind::instant) continue;
    os << "[t=" << std::setw(10) << s.begin_us << "us N" << s.node << "] "
       << std::setw(16) << std::left << to_string(s.event) << std::right;
    if (s.agent != 0) os << " agent " << s.agent;
    const std::string note = s.note();
    if (!note.empty()) os << " " << note;
    os << "\n";
  }
}

void SpanSink::dump(std::ostream& os) const {
  for (const Span& s : spans()) s.write_jsonl(os);
}

void SpanSink::dump_node(std::uint32_t node, std::string_view reason,
                         std::uint64_t time_us, std::ostream& os) const {
  std::vector<Span> ours;
  if (node < rings_.size()) append_in_order(rings_[node], ours);
  std::sort(ours.begin(), ours.end(), by_id);
  os << "{\"event\": \"flight_dump\", \"node\": " << node << ", \"reason\": \""
     << reason << "\", \"time_us\": " << time_us
     << ", \"spans\": " << ours.size() << "}\n";
  for (const Span& s : ours) s.write_jsonl(os);
}

}  // namespace mar
