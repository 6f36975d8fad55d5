// simmpi: an in-process message-passing runtime standing in for MPI (see
// DESIGN.md, hardware substitution). Ranks run as threads; messages are
// byte payloads delivered through per-rank mailboxes; every rank carries a
// simulated clock advanced by local compute charges and by message arrival
// times (Lamport-style: recv_time = max(local, send_time + wire_time)), so
// a run yields both a correct parallel execution and a simulated makespan.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "parallel/schedule.hpp"
#include "support/error.hpp"

namespace gpumip::obs {
class Counter;
class Gauge;
}  // namespace gpumip::obs

namespace gpumip::parallel {

/// Interconnect cost model (InfiniBand-class defaults).
struct NetworkConfig {
  double latency = 2.0e-6;     ///< seconds per message
  double bandwidth = 12.0e9;   ///< bytes/s
  double wire_time(std::size_t bytes) const {
    return latency + static_cast<double>(bytes) / bandwidth;
  }
};

struct Message {
  int source = -1;
  int tag = 0;
  std::vector<std::byte> payload;
  double send_time = 0.0;  ///< sender clock + wire time (arrival time)
  /// Per-(source, dest) send sequence number starting at 1. Identifies one
  /// message uniquely for the delivery trace and for schedule replay, and
  /// lets validators prove per-source FIFO (the reorder-eligibility rule).
  std::uint64_t seq = 0;
};

/// Aggregated traffic statistics of one run.
struct NetworkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  /// Messages still sitting in mailboxes when all ranks exited. Nonzero is
  /// legal for fire-and-forget protocols but usually indicates a lost
  /// message in request/reply ones; the supervisor's MessageAuditor turns
  /// the subproblem-level version of this into a hard shutdown check.
  std::uint64_t undelivered = 0;
};

namespace detail {
struct World;
}

class Comm;

struct RunReport {
  double makespan = 0.0;  ///< max final rank clock
  std::vector<double> rank_clocks;
  NetworkStats network;
  /// Ranks whose body threw an exception of its own. Ranks unwound by the
  /// resulting world teardown (or by a deadlock abort) are not counted.
  int failed_ranks = 0;
  /// The deadlock detector fired (the rethrown error carries the dump).
  bool deadlock_detected = false;
};

/// Extended controls for run_ranks.
struct RunOptions {
  NetworkConfig network;
  ScheduleConfig schedule;
  /// When set, filled with truthful statistics even on the abnormal-exit
  /// path (rank failure or deadlock): final per-rank clocks, traffic
  /// counters, and the messages left undelivered in mailboxes at the time
  /// the world was torn down. The normal return value is unavailable then
  /// because run_ranks rethrows the failing rank's exception.
  RunReport* report_out = nullptr;
};

/// Spawns `n` ranks running `body` and joins them. Exceptions thrown by a
/// rank are rethrown (first one wins) after all ranks stop. `options`
/// carries the network model, schedule controls (fuzzing, replay, deadlock
/// detection) and abnormal-exit reporting; when `options.schedule` is
/// default and the GPUMIP_SCHEDULE_* environment knobs are set, they are
/// applied here.
RunReport run_ranks(int n, const std::function<void(Comm&)>& body,
                    const RunOptions& options = {});

/// Per-rank communicator handle. Valid only inside run_ranks' callback.
class Comm {
 public:
  int rank() const noexcept { return rank_; }
  int size() const noexcept;

  /// Non-blocking buffered send: the buffer (typically `ByteWriter::take()`,
  /// or `{}` for a payload-less control message) moves straight into the
  /// queued Message, so C8 measures one wire payload, not a serialization
  /// copy on top. The message is queued at `dest` when this returns.
  void send(int dest, int tag, std::vector<std::byte>&& payload);

  /// Blocking receive; source/tag of -1 match anything.
  Message recv(int source = -1, int tag = -1);

  /// Local simulated clock.
  double now() const noexcept { return clock_; }
  /// Charges local compute time.
  void advance(double seconds) { clock_ += seconds; }

 private:
  friend struct detail::World;
  friend RunReport run_ranks(int, const std::function<void(Comm&)>&, const RunOptions&);
  Comm(detail::World* world, int rank) : world_(world), rank_(rank) {}
  [[noreturn]] void throw_aborted() const;
  /// Binds the cached per-rank metric handles (no-op without GPUMIP_OBS).
  void obs_bind();
  detail::World* world_;
  int rank_;
  double clock_ = 0.0;
  std::vector<std::uint64_t> send_seq_;  ///< next per-destination sequence
  // Cached per-rank metric handles: the names are literal but the `rank`
  // label value varies at runtime, so the static-cache form of the obs
  // macros cannot be used; a registry lookup per send would dominate the
  // send cost.
  obs::Counter* obs_sent_msgs_ = nullptr;
  obs::Counter* obs_sent_bytes_ = nullptr;
  obs::Gauge* obs_idle_seconds_ = nullptr;
};

// --- serialization helpers for message payloads ---

class ByteWriter {
 public:
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write(const T& value) {
    // resize+memcpy rather than insert(end, p, p+n): GCC 12's -O2
    // -Wstringop-overflow false-positives on the insert reallocation path
    // once surrounding code is inlined differently.
    const std::size_t at = buffer_.size();
    // gpumip-lint: hot-alloc(serialization buffer growth, geometric; take() then moves it into the zero-copy send)
    buffer_.resize(at + sizeof(T));
    std::memcpy(buffer_.data() + at, &value, sizeof(T));
  }
  void write_doubles(std::span<const double> values);
  void write_ints(std::span<const int> values);
  /// Surrenders the serialized bytes. Rvalue-qualified: the writer is spent
  /// afterwards, so the call site must say so — `std::move(w).take()`. The
  /// moved-from buffer is re-cleared, so a (moved-from) writer can be
  /// reused by writing again.
  [[nodiscard]] std::vector<std::byte> take() && {
    // gpumip-lint: hot-alloc(move construction steals buffer_'s storage — no allocation; clear() on the emptied vector keeps it reusable)
    std::vector<std::byte> out = std::move(buffer_);
    buffer_.clear();
    return out;
  }
  std::size_t size() const noexcept { return buffer_.size(); }

 private:
  template <typename T>
  void write_array(std::span<const T> values);

  std::vector<std::byte> buffer_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T read() {
    // Subtraction form: pos_ <= size() always holds, so this cannot wrap —
    // unlike `pos_ + sizeof(T) <= size()`, which overflows for adversarial
    // inputs. A short buffer is wire corruption, hence kProtocolError.
    check_protocol(sizeof(T) <= data_.size() - pos_, "ByteReader: out of data");
    T value;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }
  std::vector<double> read_doubles();
  std::vector<int> read_ints();
  bool exhausted() const noexcept { return pos_ == data_.size(); }
  /// Bytes not yet read: the bound a decoder checks a count header against.
  std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  template <typename T>
  std::vector<T> read_array();

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace gpumip::parallel
