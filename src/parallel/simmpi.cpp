#include "parallel/simmpi.hpp"

#include <atomic>
#include <thread>

#include "check/schedule_check.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "support/assert.hpp"
#include "support/log.hpp"
#include "support/timer.hpp"

namespace gpumip::parallel {

namespace detail {

/// Thrown by blocked primitives when the world is torn down (peer failure
/// or detected deadlock). Distinguished from a rank's own failure so the
/// abnormal-exit report counts only genuinely failed ranks.
struct AbortError : Error {
  explicit AbortError(const std::string& message) : Error(ErrorCode::kInternal, message) {}
};

struct Mailbox {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Message> queue;
};

struct World {
  int size = 0;
  NetworkConfig network;
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::mutex stats_mutex;
  NetworkStats stats;
  /// Set when any rank exits with an exception or the deadlock detector
  /// fires; blocked recv() calls on the surviving ranks then throw instead
  /// of waiting forever for a peer that will never send (run_ranks
  /// rethrows the original error after the join). Without this,
  /// a checked-mode invariant failure inside one rank would deadlock the
  /// whole run.
  std::atomic<bool> aborted{false};

  /// Schedule controller: delivery fuzzing, wait-for graph, trace
  /// record/replay (parallel/schedule.hpp).
  Scheduler sched;

  /// Namespaces this world's flow-event correlation ids (obs/trace.hpp):
  /// per-(source,dest) seq counters restart at 1 for every world, so the
  /// run id keeps arrows from successive run_ranks calls distinct.
  std::uint64_t trace_run = 0;

  /// Aborts the run: every blocked rank wakes and unwinds. Notifications
  /// happen under the mailbox mutex — all waits are predicate waits, but
  /// the predicate check and the sleep are only atomic against notifiers
  /// that hold the same mutex. Never call while holding a mailbox mutex.
  void abort_world() {
    aborted.store(true);
    for (auto& box : mailboxes) {
      std::lock_guard<std::mutex> lock(box->mutex);
      box->cv.notify_all();
    }
  }
};

}  // namespace detail

int Comm::size() const noexcept { return world_->size; }

void Comm::obs_bind() {
#ifdef GPUMIP_OBS_ENABLED
  // Per-rank families are one labeled instrument per rank — the registry
  // hands back stable references, so binding once per Comm keeps the send
  // path at one relaxed RMW per instrument.
  const std::string rank_str = std::to_string(rank_);
  obs_sent_msgs_ = &obs::counter("gpumip.simmpi.sent.msgs", {{"rank", rank_str}});
  obs_sent_bytes_ = &obs::counter("gpumip.simmpi.sent.bytes", {{"rank", rank_str}});
  obs_idle_seconds_ = &obs::gauge("gpumip.simmpi.recv.idle_seconds", {{"rank", rank_str}});
#endif
}

void Comm::throw_aborted() const {
  if (world_->sched.deadlocked()) {
    throw detail::AbortError(world_->sched.deadlock_report());
  }
  throw detail::AbortError("rank " + std::to_string(rank_) +
                           ": run aborted by a failure on another rank");
}

void Comm::send(int dest, int tag, std::vector<std::byte>&& payload) {
  check_arg(dest >= 0 && dest < world_->size, "send: bad destination rank");
  world_->sched.perturb(rank_);
  // gpumip-lint: hot-alloc(lazy once-per-rank sequence table, sized by world size)
  if (send_seq_.empty()) send_seq_.assign(static_cast<std::size_t>(world_->size), 0);
  Message msg;
  msg.source = rank_;
  msg.tag = tag;
  msg.payload = std::move(payload);
  const std::size_t bytes = msg.payload.size();
  msg.send_time = clock_ + world_->network.wire_time(bytes);
  msg.seq = ++send_seq_[static_cast<std::size_t>(dest)];
  {
    std::lock_guard<std::mutex> lock(world_->stats_mutex);
    ++world_->stats.messages;
    world_->stats.bytes += bytes;
  }
  GPUMIP_OBS_COUNT("gpumip.simmpi.msgs");
  GPUMIP_OBS_ADD("gpumip.simmpi.bytes", bytes);
#ifdef GPUMIP_OBS_ENABLED
  if (obs_sent_msgs_ == nullptr) obs_bind();
  obs_sent_msgs_->add(1);
  obs_sent_bytes_->add(bytes);
#endif
  GPUMIP_TRACE_INSTANT("gpumip.simmpi.send", bytes);
  GPUMIP_TRACE_FLOW_BEGIN("gpumip.simmpi.msg",
                          obs::trace::flow_key(world_->trace_run, rank_, dest, msg.seq));
  // Mirror header first: the deadlock detector must never observe a queued
  // message without its header (it could then conclude a receiver is
  // unsatisfiable while its wake-up is materializing).
  world_->sched.on_send(rank_, dest, {rank_, tag, msg.seq, bytes}, clock_);
  detail::Mailbox& box = *world_->mailboxes[static_cast<std::size_t>(dest)];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    // Delivery-order fuzzing: the new message may overtake any suffix of
    // queued messages from OTHER sources (per-source FIFO is the MPI
    // non-overtaking guarantee and the eligibility rule for reordering).
    std::size_t eligible = 0;
    for (auto it = box.queue.rbegin(); it != box.queue.rend(); ++it) {
      if (it->source == msg.source) break;
      ++eligible;
    }
    const std::size_t jump = world_->sched.overtake(dest, eligible);
    // gpumip-lint: hot-alloc(mailbox queue IS the transport; the moved-in message reuses the sender's buffer)
    box.queue.insert(box.queue.end() - static_cast<std::ptrdiff_t>(jump), std::move(msg));
  }
  box.cv.notify_all();
}

namespace {

bool matches(const Message& msg, int source, int tag) {
  return (source < 0 || msg.source == source) && (tag < 0 || msg.tag == tag);
}

/// First queued message satisfying the caller's filter — or, under replay,
/// the exact traced next delivery regardless of queue position.
std::deque<Message>::iterator find_match(std::deque<Message>& queue, int source, int tag,
                                         const DeliveryRecord* expect) {
  for (auto it = queue.begin(); it != queue.end(); ++it) {
    if (expect != nullptr) {
      if (it->source == expect->source && it->seq == expect->seq) return it;
    } else if (matches(*it, source, tag)) {
      return it;
    }
  }
  return queue.end();
}

[[noreturn]] void throw_replay_filter_mismatch(int rank, const Message& msg, int source, int tag) {
  throw Error(ErrorCode::kInternal,
              "schedule replay diverged: rank " + std::to_string(rank) +
                  " traced delivery (src " + std::to_string(msg.source) + ", tag " +
                  std::to_string(msg.tag) + ", seq " + std::to_string(msg.seq) +
                  ") does not satisfy the recv filter (source=" + std::to_string(source) +
                  ", tag=" + std::to_string(tag) + ")");
}

}  // namespace

// gpumip-lint: hot-copy(returned Message moves out of the mailbox (NRVO/move); the payload buffer changes owner, not contents)
Message Comm::recv(int source, int tag) {
  detail::World& world = *world_;
  world.sched.perturb(rank_);
  detail::Mailbox& box = *world.mailboxes[static_cast<std::size_t>(rank_)];
  // The wait span opens on the first blocking pass and must close on every
  // exit — including the replay-mismatch and world-abort throws below — or
  // the exported timeline shows a rank blocked forever. The guard's
  // destructor covers the throw paths; the explicit close keeps the
  // recorded end at the Lamport merge, not at unwind.
  GPUMIP_TRACE_SPAN_GUARD(wait_span);
  for (;;) {
    const DeliveryRecord* expect = world.sched.replay_next(rank_);
    bool got = false;
    Message msg;
    {
      std::lock_guard<std::mutex> lock(box.mutex);
      auto it = find_match(box.queue, source, tag, expect);
      if (it != box.queue.end()) {
        msg = std::move(*it);
        box.queue.erase(it);
        got = true;
      }
    }
    if (got) {
      if (expect != nullptr && !matches(msg, source, tag)) {
        throw_replay_filter_mismatch(rank_, msg, source, tag);
      }
      GPUMIP_ASSERT(msg.source >= 0 && msg.source < world.size,
                    "recv: message from out-of-range rank");
      GPUMIP_ASSERT(msg.send_time >= 0.0, "recv: negative arrival time");
      clock_ = std::max(clock_, msg.send_time);
      world.sched.on_delivered(rank_, msg, clock_);
      GPUMIP_TRACE_FLOW_END("gpumip.simmpi.msg",
                            obs::trace::flow_key(world.trace_run, msg.source, rank_, msg.seq));
      GPUMIP_TRACE_INSTANT("gpumip.simmpi.recv", msg.payload.size());
      // The wait span closes after the Lamport merge, so its simulated
      // duration is exactly the clock jump the blocking delivery caused.
      // Whether a recv blocks at all is schedule-dependent, which is why
      // replay-equality checks skip this one event name.
      GPUMIP_TRACE_SPAN_CLOSE(wait_span);
      return msg;
    }
    if (world.aborted.load()) throw_aborted();
    // Register in the wait-for graph; this block may complete a provable
    // deadlock, in which case the whole world aborts with the dump.
    if (world.sched.on_block_recv(rank_, source, tag, expect, clock_)) {
      world.abort_world();
    }
    GPUMIP_TRACE_SPAN_OPEN(wait_span, "gpumip.simmpi.recv.wait", 0);
    {
#ifdef GPUMIP_OBS_ENABLED
      const WallTimer blocked;
#endif
      std::unique_lock<std::mutex> lock(box.mutex);
      box.cv.wait(lock, [&] {
        return world.aborted.load() ||
               find_match(box.queue, source, tag, expect) != box.queue.end();
      });
      lock.unlock();
#ifdef GPUMIP_OBS_ENABLED
      const double idle = blocked.elapsed();
      GPUMIP_OBS_RECORD("gpumip.simmpi.recv.block_seconds", idle);
      if (obs_idle_seconds_ == nullptr) obs_bind();
      obs_idle_seconds_->add(idle);
#endif
    }
    world.sched.on_unblock(rank_, clock_);
  }
}

RunReport run_ranks(int n, const std::function<void(Comm&)>& body, const RunOptions& options) {
  check_arg(n >= 1, "run_ranks: need at least one rank");
  detail::World world;
  world.size = n;
  world.network = options.network;
  for (int i = 0; i < n; ++i) world.mailboxes.push_back(std::make_unique<detail::Mailbox>());

  // Environment knobs apply when the caller did not configure the
  // corresponding control explicitly (so a ctest seed sweep reaches every
  // run_ranks in the process without code changes).
  ScheduleConfig schedule = options.schedule;
  DeliveryTrace env_replay;
  const ScheduleEnv& env = schedule_env();
  if (schedule.replay == nullptr && !env.replay_path.empty()) {
    env_replay = load_trace(env.replay_path);
    schedule.replay = &env_replay;
  }
  if (!schedule.fuzz && schedule.replay == nullptr && env.seed.has_value()) {
    schedule.fuzz = true;
    schedule.seed = *env.seed;
  }
  world.sched.init(n, schedule);
  world.trace_run = obs::trace::next_run_id();
  const bool dump_on_failure = !env.trace_path.empty();
  if (dump_on_failure) world.sched.force_recording();

  std::vector<double> clocks(static_cast<std::size_t>(n), 0.0);
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::atomic<int> failed_ranks{0};

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    threads.emplace_back([&, r] {
      Comm comm(&world, r);
      // Stamp this thread's trace events from the rank's simulated Lamport
      // clock (only this thread mutates it), keyed by rank for the export.
      const obs::trace::RankBinding trace_bind(r, &comm.clock_);
      bool failed = false;
      bool abort_unwind = false;
      try {
        body(comm);
      } catch (const detail::AbortError&) {
        // Torn down by a peer's failure or a detected deadlock: this rank
        // did not fail, it was unwound. The dump/abort error still wins
        // the rethrow if nothing was recorded yet (deadlock case).
        abort_unwind = true;
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      } catch (...) {
        failed = true;
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      // A normal exit can strand survivors blocked on this rank — that is
      // a protocol bug the detector turns into an abort-with-dump instead
      // of a hang; a failed exit aborts the world outright.
      const bool deadlock = world.sched.on_exit(r, failed || abort_unwind, comm.now());
      if (failed) {
        failed_ranks.fetch_add(1);
        world.abort_world();
      } else if (deadlock) {
        world.abort_world();
      }
      clocks[static_cast<std::size_t>(r)] = comm.now();
    });
  }
  for (auto& t : threads) t.join();

  // The report is truthful on both exits: final rank clocks, traffic
  // counters, and whatever was still sitting in mailboxes when the world
  // came down (on the abort path that includes every in-flight message the
  // dead protocol never consumed).
  RunReport report;
  report.rank_clocks = clocks;
  for (double c : clocks) report.makespan = std::max(report.makespan, c);
  report.network = world.stats;
  for (const auto& box : world.mailboxes) {
    report.network.undelivered += box->queue.size();
  }
  report.failed_ranks = failed_ranks.load();
  report.deadlock_detected = world.sched.deadlocked();
  GPUMIP_OBS_COUNT("gpumip.simmpi.runs");
  GPUMIP_OBS_ADD("gpumip.simmpi.undelivered", report.network.undelivered);
  GPUMIP_OBS_RECORD("gpumip.simmpi.makespan_seconds", report.makespan);
  if (report.network.undelivered > 0 && first_error == nullptr) {
    GPUMIP_LOG(Debug) << "run_ranks: " << report.network.undelivered
                      << " message(s) never received before shutdown";
  }

  DeliveryTrace trace = world.sched.take_trace();
  // Lamport invariant: per-rank delivery clocks never regress, per-source
  // delivery sequence numbers never reorder (checked builds only).
  GPUMIP_VALIDATE(if (!trace.empty()) check::check_delivery_trace(trace));
  if (schedule.record != nullptr) *schedule.record = trace;
  if (options.report_out != nullptr) *options.report_out = report;

  if (first_error) {
    if (dump_on_failure && !trace.empty()) {
      try {
        save_trace(trace, env.trace_path);
        GPUMIP_LOG(Warn) << "run_ranks: failing delivery order written to " << env.trace_path
                         << " (" << trace.size() << " deliveries); replay with "
                         << "GPUMIP_SCHEDULE_REPLAY=" << env.trace_path;
      } catch (const Error& io) {
        GPUMIP_LOG(Error) << "run_ranks: could not write schedule trace: " << io.what();
      }
    }
    std::rethrow_exception(first_error);
  }
  return report;
}

// The empty-payload guards below matter: memcpy/insert with a null source
// pointer is undefined behaviour even for zero bytes (UBSan flags it), and
// empty vectors legitimately cross the wire (e.g. a report with no frontier).

template <typename T>
void ByteWriter::write_array(std::span<const T> values) {
  write<std::uint64_t>(values.size());
  if (values.empty()) return;
  const auto* p = reinterpret_cast<const std::byte*>(values.data());
  // gpumip-lint: hot-alloc(serialization buffer growth, geometric; take() then moves it into the zero-copy send)
  buffer_.insert(buffer_.end(), p, p + values.size_bytes());
}

void ByteWriter::write_doubles(std::span<const double> values) { write_array(values); }

void ByteWriter::write_ints(std::span<const int> values) { write_array(values); }

template <typename T>
std::vector<T> ByteReader::read_array() {
  const auto count = read<std::uint64_t>();
  // Division form so a corrupt count header cannot overflow the bound
  // check (count * 8 wraps u64 for count >= 2^61); corruption is a
  // protocol error, not a caller bug.
  check_protocol(count <= (data_.size() - pos_) / sizeof(T), "ByteReader: array out of data");
  // gpumip-lint: hot-alloc(decode materializes the vector the caller keeps; sized exactly, allocated once)
  std::vector<T> out(count);
  if (count == 0) return out;
  std::memcpy(out.data(), data_.data() + pos_, count * sizeof(T));
  pos_ += count * sizeof(T);
  return out;
}

std::vector<double> ByteReader::read_doubles() { return read_array<double>(); }

std::vector<int> ByteReader::read_ints() { return read_array<int>(); }

}  // namespace gpumip::parallel
