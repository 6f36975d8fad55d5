#include "parallel/schedule.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "parallel/simmpi.hpp"
#include "support/assert.hpp"
#include "support/error.hpp"

namespace gpumip::parallel {

// ---- trace serialization ---------------------------------------------------

std::string serialize_trace(const DeliveryTrace& trace) {
  std::ostringstream out;
  out << "gpumip-delivery-trace v1 " << trace.deliveries.size() << "\n";
  char clock_hex[64];
  for (const DeliveryRecord& record : trace.deliveries) {
    // Hex-float so a replayed run sees the exact clock bits.
    std::snprintf(clock_hex, sizeof(clock_hex), "%a", record.clock);
    out << record.rank << ' ' << record.source << ' ' << record.tag << ' ' << record.seq << ' '
        << clock_hex << "\n";
  }
  return out.str();
}

DeliveryTrace deserialize_trace(const std::string& text) {
  std::istringstream in(text);
  std::string magic, version;
  std::size_t count = 0;
  if (!(in >> magic >> version >> count) || magic != "gpumip-delivery-trace" || version != "v1") {
    throw Error(ErrorCode::kIoError, "delivery trace: bad header");
  }
  DeliveryTrace trace;
  trace.deliveries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    DeliveryRecord record;
    std::string clock_hex;
    if (!(in >> record.rank >> record.source >> record.tag >> record.seq >> clock_hex)) {
      throw Error(ErrorCode::kIoError,
                  "delivery trace: truncated at record " + std::to_string(i));
    }
    record.clock = std::strtod(clock_hex.c_str(), nullptr);
    if (record.rank < 0 || record.source < 0 || record.seq == 0) {
      throw Error(ErrorCode::kIoError,
                  "delivery trace: invalid record " + std::to_string(i));
    }
    trace.deliveries.push_back(record);
  }
  return trace;
}

void save_trace(const DeliveryTrace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw Error(ErrorCode::kIoError, "cannot open trace file for writing: " + path);
  out << serialize_trace(trace);
  if (!out) throw Error(ErrorCode::kIoError, "short write to trace file: " + path);
}

DeliveryTrace load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error(ErrorCode::kIoError, "cannot open trace file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return deserialize_trace(buffer.str());
}

// ---- environment knobs -----------------------------------------------------

const ScheduleEnv& schedule_env() {
  // Parsed once; std::getenv races with setenv, so keep the single read
  // site here (magic-static init is thread-safe).
  static const ScheduleEnv env = [] {
    ScheduleEnv parsed;
    // NOLINTBEGIN(concurrency-mt-unsafe): one-time read at first use.
    const char* seed = std::getenv("GPUMIP_SCHEDULE_SEED");
    const char* trace = std::getenv("GPUMIP_SCHEDULE_TRACE");
    const char* replay = std::getenv("GPUMIP_SCHEDULE_REPLAY");
    // NOLINTEND(concurrency-mt-unsafe)
    if (seed != nullptr && *seed != '\0') {
      char* end = nullptr;
      const unsigned long long value = std::strtoull(seed, &end, 10);
      check_arg(end != nullptr && *end == '\0',
                std::string("GPUMIP_SCHEDULE_SEED is not an integer: ") + seed);
      parsed.seed = static_cast<std::uint64_t>(value);
    }
    if (trace != nullptr) parsed.trace_path = trace;
    if (replay != nullptr) parsed.replay_path = replay;
    return parsed;
  }();
  return env;
}

namespace detail {

// ---- scheduler lifecycle ---------------------------------------------------

void Scheduler::init(int n, const ScheduleConfig& config) {
  config_ = config;
  size_ = n;
  record_internally_ = config.record != nullptr;
  ranks_.assign(static_cast<std::size_t>(n), RankState{});
  replay_plan_.assign(static_cast<std::size_t>(n), {});
  if (config_.replay != nullptr) {
    for (const DeliveryRecord& record : config_.replay->deliveries) {
      if (record.rank >= 0 && record.rank < n) {
        replay_plan_[static_cast<std::size_t>(record.rank)].push_back(record);
      }
    }
  }
  yield_rngs_.clear();
  insert_rngs_.clear();
  for (int r = 0; r < n; ++r) {
    // Distinct streams per rank/mailbox; the golden-ratio constant keeps
    // nearby seeds from producing correlated streams.
    const std::uint64_t salt = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(r + 1);
    yield_rngs_.emplace_back(config_.seed ^ salt);
    insert_rngs_.emplace_back(~config_.seed ^ salt);
  }
}

// ---- fuzzing hooks ---------------------------------------------------------

void Scheduler::perturb(int rank) {
  if (!config_.fuzz) return;
  auto& rng = yield_rngs_[static_cast<std::size_t>(rank)];
  // 0-3 yields: enough to shuffle which thread wins the next mailbox lock
  // without turning the simulator into a sleep test.
  const auto yields = static_cast<int>(rng() % 4);
  for (int i = 0; i < yields; ++i) std::this_thread::yield();
}

std::size_t Scheduler::overtake(int dest, std::size_t eligible) {
  if (!config_.fuzz || eligible == 0) return 0;
  auto& rng = insert_rngs_[static_cast<std::size_t>(dest)];
  return static_cast<std::size_t>(rng() % (eligible + 1));
}

const DeliveryRecord* Scheduler::replay_next(int rank) const {
  if (config_.replay == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  const RankState& state = ranks_[static_cast<std::size_t>(rank)];
  const auto& plan = replay_plan_[static_cast<std::size_t>(rank)];
  if (state.replay_pos >= plan.size()) return nullptr;
  return &plan[state.replay_pos];
}

// ---- wait-for graph events -------------------------------------------------

void Scheduler::on_send(int rank, int dest, const MsgHeader& header, double clock) {
  std::lock_guard<std::mutex> lock(mutex_);
  ranks_[static_cast<std::size_t>(rank)].clock = clock;
  // The mirror header goes in BEFORE the message is enqueued (see
  // Comm::send), so the detector can only over-estimate progress — it
  // never declares a deadlock while a delivery is materializing.
  ranks_[static_cast<std::size_t>(dest)].inbox.push_back(header);
}

void Scheduler::on_delivered(int rank, const Message& msg, double clock) {
  std::lock_guard<std::mutex> lock(mutex_);
  RankState& state = ranks_[static_cast<std::size_t>(rank)];
  state.phase = Phase::Running;
  state.want_source = -1;
  state.want_tag = -1;
  state.want_seq = 0;
  state.clock = clock;
  for (auto it = state.inbox.begin(); it != state.inbox.end(); ++it) {
    if (it->source == msg.source && it->seq == msg.seq) {
      state.inbox.erase(it);
      break;
    }
  }
  if (config_.replay != nullptr) {
    const auto& plan = replay_plan_[static_cast<std::size_t>(rank)];
    if (state.replay_pos < plan.size()) {
      const DeliveryRecord& expect = plan[state.replay_pos];
      if (expect.source != msg.source || expect.seq != msg.seq) {
        throw Error(ErrorCode::kInternal,
                    "schedule replay diverged: rank " + std::to_string(rank) + " delivered (src " +
                        std::to_string(msg.source) + ", seq " + std::to_string(msg.seq) +
                        ") but the trace expected (src " + std::to_string(expect.source) +
                        ", seq " + std::to_string(expect.seq) + ")");
      }
      ++state.replay_pos;
    }
  }
  if (record_internally_) {
    trace_.deliveries.push_back({rank, msg.source, msg.tag, msg.seq, clock});
  }
}

bool Scheduler::on_block_recv(int rank, int source, int tag, const DeliveryRecord* expect,
                              double clock) {
  std::lock_guard<std::mutex> lock(mutex_);
  RankState& state = ranks_[static_cast<std::size_t>(rank)];
  state.phase = Phase::BlockedRecv;
  state.clock = clock;
  if (expect != nullptr) {
    state.want_source = expect->source;
    state.want_tag = -1;
    state.want_seq = expect->seq;
  } else {
    state.want_source = source;
    state.want_tag = tag;
    state.want_seq = 0;
  }
  return detect_locked();
}

void Scheduler::on_unblock(int rank, double clock) {
  std::lock_guard<std::mutex> lock(mutex_);
  RankState& state = ranks_[static_cast<std::size_t>(rank)];
  if (state.phase != Phase::Exited) state.phase = Phase::Running;
  state.want_source = -1;
  state.want_tag = -1;
  state.want_seq = 0;
  state.clock = clock;
}

bool Scheduler::on_exit(int rank, bool failed, double clock) {
  std::lock_guard<std::mutex> lock(mutex_);
  RankState& state = ranks_[static_cast<std::size_t>(rank)];
  state.phase = Phase::Exited;
  state.failed = failed;
  state.clock = clock;
  // A failed rank already aborts the world; only a normal exit can strand
  // survivors silently.
  return failed ? false : detect_locked();
}

// ---- deadlock detection ----------------------------------------------------

bool Scheduler::header_satisfies(const MsgHeader& header, const RankState& state) const {
  if (state.want_seq != 0) {
    return header.source == state.want_source && header.seq == state.want_seq;
  }
  return (state.want_source < 0 || header.source == state.want_source) &&
         (state.want_tag < 0 || header.tag == state.want_tag);
}

// Aborts with a dump on a provable deadlock instead of hanging. The detector
// is purely conservative: it fires only when no blocked rank can ever be
// satisfied, so it always runs and costs nothing but the bookkeeping.
bool Scheduler::detect_locked() {
  if (deadlock_fired_) return false;
  // A failed rank means a teardown abort is already in flight; survivors
  // blocked on the dead rank are its victims, not a protocol deadlock.
  for (const RankState& state : ranks_) {
    if (state.failed) return false;
  }
  const auto n = static_cast<std::size_t>(size_);

  // Optimistic progress closure: `can[r]` means rank r may still take a
  // step. Seeds: running ranks, and blocked receivers with a queued
  // matching message. Propagation: a blocked receiver progresses if ANY
  // rank it waits for progresses (that rank might send). Because
  // propagation only ever over-approximates reachability, a rank left
  // unmarked provably can never be woken — no false positives.
  std::vector<char> can(n, 0);
  for (std::size_t r = 0; r < n; ++r) {
    const RankState& state = ranks_[r];
    if (state.phase == Phase::Running) {
      can[r] = 1;
    } else if (state.phase == Phase::BlockedRecv) {
      for (const MsgHeader& header : state.inbox) {
        if (header_satisfies(header, state)) {
          can[r] = 1;
          break;
        }
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t r = 0; r < n; ++r) {
      const RankState& state = ranks_[r];
      if (can[r] != 0 || state.phase != Phase::BlockedRecv) continue;
      if (state.want_source >= 0) {
        if (can[static_cast<std::size_t>(state.want_source)] != 0) {
          can[r] = 1;
          changed = true;
        }
      } else {
        for (std::size_t s = 0; s < n; ++s) {
          if (s != r && can[s] != 0) {
            can[r] = 1;
            changed = true;
            break;
          }
        }
      }
    }
  }

  int stuck_count = 0;
  for (std::size_t r = 0; r < n; ++r) {
    if (ranks_[r].phase == Phase::BlockedRecv && can[r] == 0) ++stuck_count;
  }
  if (stuck_count == 0) return false;

  std::ostringstream report;
  report << "simmpi deadlock detected: " << stuck_count
         << " rank(s) can never be woken\n";
  for (std::size_t r = 0; r < n; ++r) {
    report << "  " << describe_rank_locked(static_cast<int>(r));
    if (can[r] == 0 && ranks_[r].phase != Phase::Exited) report << "  [STUCK]";
    report << "\n";
  }
  deadlock_report_ = report.str();
  deadlock_fired_ = true;
  return true;
}

std::string Scheduler::describe_rank_locked(int rank) const {
  const RankState& state = ranks_[static_cast<std::size_t>(rank)];
  std::ostringstream out;
  out << "rank " << rank << ": ";
  switch (state.phase) {
    case Phase::Running:
      out << "running";
      break;
    case Phase::BlockedRecv:
      out << "blocked in recv(source="
          << (state.want_source < 0 ? std::string("any") : std::to_string(state.want_source))
          << ", tag=" << (state.want_tag < 0 ? std::string("any") : std::to_string(state.want_tag));
      if (state.want_seq != 0) out << ", replay seq=" << state.want_seq;
      out << ")";
      break;
    case Phase::Exited:
      out << (state.failed ? "exited with error" : "exited");
      break;
  }
  out << " at t=" << state.clock << "s; mailbox: [";
  for (std::size_t i = 0; i < state.inbox.size(); ++i) {
    const MsgHeader& header = state.inbox[i];
    if (i != 0) out << ", ";
    out << "from " << header.source << " tag " << header.tag << " seq " << header.seq << " ("
        << header.bytes << " B)";
  }
  out << "]";
  return out.str();
}

bool Scheduler::deadlocked() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return deadlock_fired_;
}

std::string Scheduler::deadlock_report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return deadlock_report_;
}

DeliveryTrace Scheduler::take_trace() {
  std::lock_guard<std::mutex> lock(mutex_);
  DeliveryTrace out = std::move(trace_);
  // Not a pessimizing move (trace_ is a member, so this is a genuine
  // ownership transfer), but don't leave the member in the moved-from
  // "valid but unspecified" state: re-initialize so a later record/take
  // cycle starts from a documented empty trace.
  trace_ = DeliveryTrace{};
  return out;
}

}  // namespace detail

}  // namespace gpumip::parallel
