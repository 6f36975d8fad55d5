// Schedule controller for the simmpi runtime (DESIGN.md, "simmpi
// concurrency model").
//
// The OS thread scheduler only ever shows one interleaving of rank threads
// per run, so ordering bugs in message-passing protocols survive arbitrary
// amounts of conventional testing. This layer makes the schedule itself a
// controllable, observable input:
//
//  * fuzzing  — a seeded controller perturbs message delivery order among
//    eligible messages (any reordering that preserves per-source FIFO, the
//    MPI non-overtaking rule) and injects yield points at send/recv so a
//    seed sweep explores many distinct delivery orders;
//  * deadlock detection — ranks blocked in recv() register in a
//    wait-for graph; when no blocked rank can ever be satisfied (a cycle of
//    specific-source waits, a wait on an exited rank, or global quiescence
//    with nonempty waiters) the world aborts with a per-rank dump instead
//    of hanging ctest;
//  * record/replay — every delivery is appended to a DeliveryTrace which
//    can be serialized and later replayed exactly: each rank is forced to
//    consume messages in the recorded (source, seq) order, reproducing a
//    failing schedule deterministically.
//
// Environment knobs (read once per process, applied by run_ranks when the
// caller did not configure a schedule explicitly):
//   GPUMIP_SCHEDULE_SEED=N     enable fuzzing with seed N
//   GPUMIP_SCHEDULE_TRACE=path on abnormal termination, write the delivery
//                              trace of the failing run to `path`
//   GPUMIP_SCHEDULE_REPLAY=path replay the delivery order stored at `path`
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <vector>

namespace gpumip::parallel {

struct Message;  // simmpi.hpp

/// One observed message delivery: rank `rank` consumed the `seq`-th message
/// sent by `source` to it (per-(source,dest) sequence numbers start at 1).
/// `clock` is the receiver's simulated clock just after the Lamport merge.
struct DeliveryRecord {
  int rank = -1;
  int source = -1;
  int tag = 0;
  std::uint64_t seq = 0;
  double clock = 0.0;
};

/// Ordered log of every delivery in one run_ranks execution. The global
/// order is informational; replay enforces each rank's subsequence (which
/// fully determines the execution of a deterministic protocol).
struct DeliveryTrace {
  std::vector<DeliveryRecord> deliveries;

  bool empty() const noexcept { return deliveries.empty(); }
  std::size_t size() const noexcept { return deliveries.size(); }
};

/// Text round-trip (clocks serialized as hex-floats, so replay sees the
/// exact bits). deserialize/load throw Error(kIoError) on malformed input.
[[nodiscard]] std::string serialize_trace(const DeliveryTrace& trace);
[[nodiscard]] DeliveryTrace deserialize_trace(const std::string& text);
void save_trace(const DeliveryTrace& trace, const std::string& path);
[[nodiscard]] DeliveryTrace load_trace(const std::string& path);

/// Per-run schedule controls, passed to run_ranks.
struct ScheduleConfig {
  /// Perturb delivery order (seeded) and inject yield points.
  bool fuzz = false;
  std::uint64_t seed = 0;
  /// Replay: force each rank to consume messages in this recorded order
  /// (prefix; once a rank's trace is exhausted it runs unconstrained).
  const DeliveryTrace* replay = nullptr;
  /// Record: append every delivery of this run here (caller-owned).
  DeliveryTrace* record = nullptr;
};

/// Process-wide schedule knobs from the environment (parsed once).
struct ScheduleEnv {
  std::optional<std::uint64_t> seed;
  std::string trace_path;   ///< failure-trace destination ("" = off)
  std::string replay_path;  ///< trace to replay ("" = off)
};
const ScheduleEnv& schedule_env();

namespace detail {

/// Mailbox-mirror header used by the deadlock detector (message existence
/// and identity without touching the per-rank mailbox locks).
struct MsgHeader {
  int source = -1;
  int tag = 0;
  std::uint64_t seq = 0;
  std::size_t bytes = 0;
};

/// The seeded hook inside detail::World: owns the wait-for graph, the
/// mailbox mirrors, the delivery trace, and the fuzzing RNGs.
///
/// Locking: all on_* event hooks and the detector take the internal mutex.
/// perturb() uses a per-rank RNG touched only by the owning rank thread;
/// overtake() uses a per-destination RNG that is only ever called under
/// that destination's mailbox mutex.
class Scheduler {
 public:
  void init(int n, const ScheduleConfig& config);

  /// Record deliveries even without a caller-supplied sink (failure dump).
  void force_recording() { record_internally_ = true; }

  /// Yield-injection point at send/recv entry (fuzz mode only).
  void perturb(int rank);
  /// How many of the `eligible` reorderable tail messages the new message
  /// overtakes on insertion; uniform in [0, eligible]. Call under the
  /// destination mailbox mutex.
  std::size_t overtake(int dest, std::size_t eligible);

  /// Next forced delivery for `rank` under replay; nullptr when the rank's
  /// recorded subsequence is exhausted (or not replaying).
  const DeliveryRecord* replay_next(int rank) const;

  // --- event hooks (wait-for graph + mirror + trace maintenance) ---------
  void on_send(int rank, int dest, const MsgHeader& header, double clock);
  void on_delivered(int rank, const Message& msg, double clock);
  /// Registers `rank` blocked in recv; returns true when this block
  /// completes a provable deadlock (caller must abort the world).
  bool on_block_recv(int rank, int source, int tag, const DeliveryRecord* expect, double clock);
  void on_unblock(int rank, double clock);
  /// Rank left its body (normally or by exception); may expose a deadlock
  /// among the survivors — same contract as on_block_recv.
  bool on_exit(int rank, bool failed, double clock);

  bool deadlocked() const;
  /// Per-rank dump (blocked site, mailbox contents, simulated clock) of
  /// the detected deadlock; empty when none fired.
  std::string deadlock_report() const;

  /// The recorded trace (valid after all ranks joined).
  DeliveryTrace take_trace();

 private:
  enum class Phase { Running, BlockedRecv, Exited };

  struct RankState {
    Phase phase = Phase::Running;
    int want_source = -1;            ///< valid when BlockedRecv
    int want_tag = -1;               ///< valid when BlockedRecv
    std::uint64_t want_seq = 0;      ///< nonzero: replay wants this exact message
    bool failed = false;             ///< exited via exception
    double clock = 0.0;              ///< last known simulated clock
    std::vector<MsgHeader> inbox;    ///< mirror of the rank's mailbox
    std::size_t replay_pos = 0;      ///< cursor into replay_plan_
  };

  bool header_satisfies(const MsgHeader& header, const RankState& state) const;
  /// Wait-for-graph fixpoint; fires at most once. Caller holds mutex_.
  bool detect_locked();
  std::string describe_rank_locked(int rank) const;

  ScheduleConfig config_;
  int size_ = 0;
  bool record_internally_ = false;

  mutable std::mutex mutex_;
  std::vector<RankState> ranks_;
  DeliveryTrace trace_;
  bool deadlock_fired_ = false;
  std::string deadlock_report_;

  std::vector<std::vector<DeliveryRecord>> replay_plan_;  ///< per-rank subsequence
  std::vector<std::mt19937_64> yield_rngs_;   ///< owner-thread only
  std::vector<std::mt19937_64> insert_rngs_;  ///< under dest mailbox mutex
};

}  // namespace detail

}  // namespace gpumip::parallel
