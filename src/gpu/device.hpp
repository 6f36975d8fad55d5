// Simulated GPU device: memory arena, streams, events, transfer engines,
// and a kernel scheduler that charges simulated time.
//
// Semantics: enqueued work executes its host-side effect immediately (data
// is always up to date when the enqueueing call returns), while the *cost*
// is charged to an event-driven timeline that models
//   * one copy engine per direction (H2D / D2H transfers serialize),
//   * up to `parallel_slots` kernels overlapping across streams,
//   * FIFO ordering within a stream, arbitrary overlap across streams.
// `synchronize()` advances the device clock to the completion of all
// enqueued work and returns it. This reproduces the scheduling behaviour
// the paper's sections 5.1-5.5 reason about (stream concurrency, batched
// launches, transfer round trips) without physical hardware.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "gpu/cost_model.hpp"
#include "support/error.hpp"

namespace gpumip::gpu {

class Device;

/// RAII handle to a span of simulated device memory. Move-only; returns its
/// bytes to the device on destruction. Backed by host storage so kernels
/// (which run on the host in this simulator) can touch the data directly.
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  ~DeviceBuffer();
  DeviceBuffer(DeviceBuffer&& other) noexcept;
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept;
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  bool valid() const noexcept { return device_ != nullptr; }
  std::size_t size_bytes() const noexcept { return storage_.size(); }
  Device* device() const noexcept { return device_; }
  const std::string& label() const noexcept { return label_; }
  /// Ledger id of this allocation (0 when invalid/moved-from).
  std::uint64_t alloc_id() const noexcept { return alloc_id_; }

  /// Typed view of the buffer contents (device-side data). Only kernel
  /// bodies and the transfer engine should touch this.
  template <typename T>
  std::span<T> as() {
    return {reinterpret_cast<T*>(storage_.data()), storage_.size() / sizeof(T)};
  }
  template <typename T>
  std::span<const T> as() const {
    return {reinterpret_cast<const T*>(storage_.data()), storage_.size() / sizeof(T)};
  }

 private:
  friend class Device;
  DeviceBuffer(Device* device, std::size_t bytes, std::string label, std::uint64_t alloc_id);
  void release() noexcept;

  Device* device_ = nullptr;
  std::vector<std::byte> storage_;
  std::string label_;
  std::uint64_t alloc_id_ = 0;
};

/// Identifies a stream on a device. Stream 0 always exists.
using StreamId = int;

/// A point on a stream's timeline, usable for cross-stream ordering.
struct Event {
  double ready_time = 0.0;
};

/// Aggregate statistics a device keeps about the work it has run.
struct DeviceStats {
  std::uint64_t bytes_h2d = 0;
  std::uint64_t bytes_d2h = 0;
  std::uint64_t transfers_h2d = 0;
  std::uint64_t transfers_d2h = 0;
  std::uint64_t kernels = 0;
  double kernel_seconds = 0.0;    ///< sum of individual kernel durations
  double transfer_seconds = 0.0;  ///< sum of individual transfer durations
  std::uint64_t allocated_bytes = 0;
  std::uint64_t peak_allocated_bytes = 0;
  std::uint64_t allocations = 0;
  std::uint64_t double_frees = 0;  ///< frees of ids not live in the ledger
};

/// One simulated accelerator.
///
/// Every allocation is recorded in a ledger keyed by a monotonically
/// increasing id; frees must match a live entry. audit() proves the ledger
/// is empty (no leaked blocks) and that no double-free was ever recorded —
/// the device-memory teardown check of the analysis layer (check/).
class Device {
 public:
  explicit Device(CostModelConfig config = {}, int id = 0);
  ~Device();

  int id() const noexcept { return id_; }
  const CostModelConfig& config() const noexcept { return config_; }
  const DeviceStats& stats() const noexcept { return stats_; }

  std::uint64_t free_bytes() const noexcept {
    return config_.memory_bytes - stats_.allocated_bytes;
  }

  /// Allocates device memory; throws DeviceOutOfMemory when over capacity.
  [[nodiscard]] DeviceBuffer alloc(std::size_t bytes, std::string label = "");

  /// Allocates a buffer of `count` doubles.
  [[nodiscard]] DeviceBuffer alloc_doubles(std::size_t count, std::string label = "");

  /// Creates an additional stream and returns its id.
  StreamId create_stream();
  int stream_count() const noexcept { return static_cast<int>(streams_.size()); }

  /// Copies host -> device. Charges the H2D copy engine.
  void copy_h2d(StreamId stream, DeviceBuffer& dst, const void* src, std::size_t bytes,
                std::size_t dst_offset = 0);

  /// Copies device -> host. Charges the D2H copy engine.
  void copy_d2h(StreamId stream, const DeviceBuffer& src, void* dst, std::size_t bytes,
                std::size_t src_offset = 0);

  /// Convenience typed copies for doubles.
  void upload(StreamId stream, DeviceBuffer& dst, std::span<const double> src,
              std::size_t dst_offset_doubles = 0);
  void download(StreamId stream, const DeviceBuffer& src, std::span<double> dst,
                std::size_t src_offset_doubles = 0);

  /// Launches a kernel: runs `body` immediately for its data effect and
  /// charges `cost` to the stream's timeline through the kernel scheduler.
  void launch(StreamId stream, const KernelCost& cost, const std::function<void()>& body);

  /// Records an event capturing the stream's current frontier.
  Event record(StreamId stream);

  /// Makes `stream` wait until `event` (cross-stream dependency).
  void wait(StreamId stream, const Event& event);

  /// Blocks (logically) until all enqueued work completes; advances and
  /// returns the device clock.
  double synchronize();

  /// Current device clock (time of last synchronize()).
  double now() const noexcept { return clock_; }

  /// Zeroes the activity statistics (allocation accounting is preserved)
  /// and rewinds all timelines; used between benchmark phases.
  void reset_stats();

  // ---- memory ledger audit ----

  /// Number of live (not yet freed) allocations in the ledger.
  std::size_t live_allocations() const noexcept { return ledger_.size(); }

  /// Throws Error(kInternal) when any block is still live (leak at
  /// teardown) or a double-free was recorded; no-op on a clean ledger.
  void audit() const;

  /// Fault-injection hook for ledger tests: frees ledger entry `id` as if a
  /// buffer destructor ran. A second call with the same id is recorded as a
  /// double-free (audit() then throws).
  void inject_free(std::uint64_t id, std::size_t bytes) noexcept { on_free(id, bytes); }

 private:
  friend class DeviceBuffer;
  void on_free(std::uint64_t alloc_id, std::size_t bytes) noexcept;
  void validate_stream(StreamId stream) const;

  /// Returns the start time the kernel scheduler grants a kernel that
  /// becomes ready at `ready`: it must also find a free slot.
  double acquire_kernel_slot(double ready, double duration);

  struct LedgerEntry {
    std::size_t bytes = 0;
    std::string label;
  };

  CostModelConfig config_;
  int id_ = 0;
  DeviceStats stats_;
  double clock_ = 0.0;
  // Ordered by allocation id so the leak report (destructor warning,
  // reset_stats error) lists blocks deterministically — replay-identical
  // runs must produce byte-identical diagnostics (gpumip-lint R15).
  std::map<std::uint64_t, LedgerEntry> ledger_;
  std::uint64_t next_alloc_id_ = 1;

  std::vector<double> streams_;  // per-stream completion frontier
  double h2d_engine_ = 0.0;      // copy engine availability
  double d2h_engine_ = 0.0;
  // End times of kernels currently occupying the `parallel_slots` slots.
  std::priority_queue<double, std::vector<double>, std::greater<double>> slot_ends_;
};

}  // namespace gpumip::gpu
