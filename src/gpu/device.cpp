#include "gpu/device.hpp"

#include <algorithm>
#include <cstring>

#include "check/registry.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"

namespace gpumip::gpu {

DeviceBuffer::DeviceBuffer(Device* device, std::size_t bytes, std::string label,
                           std::uint64_t alloc_id)
    : device_(device), storage_(bytes), label_(std::move(label)), alloc_id_(alloc_id) {}

DeviceBuffer::~DeviceBuffer() { release(); }

DeviceBuffer::DeviceBuffer(DeviceBuffer&& other) noexcept
    : device_(other.device_),
      storage_(std::move(other.storage_)),
      label_(std::move(other.label_)),
      alloc_id_(other.alloc_id_) {
  other.device_ = nullptr;
  other.storage_.clear();
  other.alloc_id_ = 0;
}

DeviceBuffer& DeviceBuffer::operator=(DeviceBuffer&& other) noexcept {
  if (this != &other) {
    release();
    device_ = other.device_;
    storage_ = std::move(other.storage_);
    label_ = std::move(other.label_);
    alloc_id_ = other.alloc_id_;
    other.device_ = nullptr;
    other.storage_.clear();
    other.alloc_id_ = 0;
  }
  return *this;
}

void DeviceBuffer::release() noexcept {
  if (device_ != nullptr) {
    device_->on_free(alloc_id_, storage_.size());
    device_ = nullptr;
    alloc_id_ = 0;
  }
  storage_.clear();
  storage_.shrink_to_fit();
}

Device::Device(CostModelConfig config, int id) : config_(config), id_(id) {
  streams_.push_back(0.0);  // stream 0
}

Device::~Device() {
  // Destructors cannot throw; surface teardown leaks loudly instead. Checked
  // flows should call audit() explicitly before the device goes away.
  if (!ledger_.empty()) {
    GPUMIP_LOG(Warn) << "device " << id_ << " destroyed with " << ledger_.size()
                     << " leaked block(s); first: "
                     << (ledger_.begin()->second.label.empty() ? "<unlabeled>"
                                                               : ledger_.begin()->second.label);
  }
}

DeviceBuffer Device::alloc(std::size_t bytes, std::string label) {
  if (stats_.allocated_bytes + bytes > config_.memory_bytes) {
    throw DeviceOutOfMemory("device " + std::to_string(id_) + ": request of " +
                            human_bytes(bytes) + " exceeds free " + human_bytes(free_bytes()) +
                            (label.empty() ? "" : " (for " + label + ")"));
  }
  stats_.allocated_bytes += bytes;
  stats_.peak_allocated_bytes = std::max(stats_.peak_allocated_bytes, stats_.allocated_bytes);
  ++stats_.allocations;
  GPUMIP_OBS_COUNT("gpumip.gpu.alloc.calls");
  GPUMIP_OBS_ADD("gpumip.gpu.alloc.bytes", bytes);
  GPUMIP_OBS_GAUGE_MAX("gpumip.gpu.mem.peak_bytes", static_cast<double>(stats_.peak_allocated_bytes));
  const std::uint64_t alloc_id = next_alloc_id_++;
  ledger_.emplace(alloc_id, LedgerEntry{bytes, label});
  return DeviceBuffer(this, bytes, std::move(label), alloc_id);
}

DeviceBuffer Device::alloc_doubles(std::size_t count, std::string label) {
  return alloc(count * sizeof(double), std::move(label));
}

StreamId Device::create_stream() {
  streams_.push_back(clock_);
  return static_cast<StreamId>(streams_.size() - 1);
}

void Device::validate_stream(StreamId stream) const {
  // Runs on every launch and copy: compose the message only on failure.
  if (stream < 0 || stream >= static_cast<StreamId>(streams_.size())) {
    check_arg(false, "invalid stream id " + std::to_string(stream));
  }
}

void Device::copy_h2d(StreamId stream, DeviceBuffer& dst, const void* src, std::size_t bytes,
                      std::size_t dst_offset) {
  validate_stream(stream);
  check_arg(dst.valid() && dst.device() == this, "copy_h2d: buffer not on this device");
  check_arg(dst_offset + bytes <= dst.size_bytes(), "copy_h2d: out of range");
  // Zero-byte transfers carry a null host pointer (empty vectors); memcpy
  // with null is UB even for size 0. Still charged below: a real cudaMemcpy
  // of 0 bytes pays the launch latency too.
  if (bytes > 0) std::memcpy(dst.storage_.data() + dst_offset, src, bytes);
  const double duration = transfer_seconds(config_, bytes);
  const double start = std::max(streams_[stream], h2d_engine_);
  const double end = start + duration;
  h2d_engine_ = end;
  streams_[stream] = end;
  stats_.bytes_h2d += bytes;
  ++stats_.transfers_h2d;
  stats_.transfer_seconds += duration;
  GPUMIP_OBS_COUNT("gpumip.gpu.xfer.h2d.calls");
  GPUMIP_OBS_ADD("gpumip.gpu.xfer.h2d.bytes", bytes);
  GPUMIP_TRACE_COMPLETE("gpumip.gpu.h2d", obs::trace::Lane::kH2D, start, duration, bytes);
}

void Device::copy_d2h(StreamId stream, const DeviceBuffer& src, void* dst, std::size_t bytes,
                      std::size_t src_offset) {
  validate_stream(stream);
  check_arg(src.valid() && src.device() == this, "copy_d2h: buffer not on this device");
  check_arg(src_offset + bytes <= src.size_bytes(), "copy_d2h: out of range");
  if (bytes > 0) std::memcpy(dst, src.storage_.data() + src_offset, bytes);
  const double duration = transfer_seconds(config_, bytes);
  const double start = std::max(streams_[stream], d2h_engine_);
  const double end = start + duration;
  d2h_engine_ = end;
  streams_[stream] = end;
  stats_.bytes_d2h += bytes;
  ++stats_.transfers_d2h;
  stats_.transfer_seconds += duration;
  GPUMIP_OBS_COUNT("gpumip.gpu.xfer.d2h.calls");
  GPUMIP_OBS_ADD("gpumip.gpu.xfer.d2h.bytes", bytes);
  GPUMIP_TRACE_COMPLETE("gpumip.gpu.d2h", obs::trace::Lane::kD2H, start, duration, bytes);
}

void Device::upload(StreamId stream, DeviceBuffer& dst, std::span<const double> src,
                    std::size_t dst_offset_doubles) {
  copy_h2d(stream, dst, src.data(), src.size_bytes(), dst_offset_doubles * sizeof(double));
}

void Device::download(StreamId stream, const DeviceBuffer& src, std::span<double> dst,
                      std::size_t src_offset_doubles) {
  copy_d2h(stream, src, dst.data(), dst.size_bytes(), src_offset_doubles * sizeof(double));
}

double Device::acquire_kernel_slot(double ready, double duration) {
  // Drop slots that end before `ready`: they are free by then.
  while (!slot_ends_.empty() && slot_ends_.top() <= ready) slot_ends_.pop();
  double start = ready;
  if (static_cast<int>(slot_ends_.size()) >= config_.parallel_slots) {
    start = slot_ends_.top();
    slot_ends_.pop();
  }
  slot_ends_.push(start + duration);
  return start;
}

void Device::launch(StreamId stream, const KernelCost& cost, const std::function<void()>& body) {
  validate_stream(stream);
  if (body) body();  // host-side effect happens eagerly
  const double duration = kernel_seconds(config_, cost);
  const double start = acquire_kernel_slot(streams_[stream], duration);
  streams_[stream] = start + duration;
  ++stats_.kernels;
  stats_.kernel_seconds += duration;
  GPUMIP_OBS_COUNT("gpumip.gpu.kernel.launches");
  GPUMIP_OBS_RECORD("gpumip.gpu.kernel.occupancy", cost.occupancy);
  GPUMIP_TRACE_COMPLETE("gpumip.gpu.kernel", obs::trace::Lane::kKernel, start, duration,
                        static_cast<std::uint64_t>(stream));
}

Event Device::record(StreamId stream) {
  validate_stream(stream);
  return Event{streams_[stream]};
}

void Device::wait(StreamId stream, const Event& event) {
  validate_stream(stream);
  streams_[stream] = std::max(streams_[stream], event.ready_time);
}

double Device::synchronize() {
  double frontier = std::max(h2d_engine_, d2h_engine_);
  for (double t : streams_) frontier = std::max(frontier, t);
  clock_ = std::max(clock_, frontier);
  return clock_;
}

void Device::reset_stats() {
  const auto allocated = stats_.allocated_bytes;
  const auto double_frees = stats_.double_frees;  // correctness flag, not activity
  stats_ = DeviceStats{};
  stats_.allocated_bytes = allocated;
  stats_.peak_allocated_bytes = allocated;
  stats_.double_frees = double_frees;
  clock_ = 0.0;
  h2d_engine_ = d2h_engine_ = 0.0;
  std::fill(streams_.begin(), streams_.end(), 0.0);
  while (!slot_ends_.empty()) slot_ends_.pop();
}

void Device::on_free(std::uint64_t alloc_id, std::size_t bytes) noexcept {
  auto it = ledger_.find(alloc_id);
  if (it == ledger_.end()) {
    // Freeing an id the ledger does not consider live: a double-free (or a
    // free of foreign memory). Recorded, not thrown — this runs inside
    // buffer destructors; audit() reports it.
    ++stats_.double_frees;
    GPUMIP_LOG(Error) << "device " << id_ << ": double free of allocation id " << alloc_id;
    return;
  }
  ledger_.erase(it);
  stats_.allocated_bytes -= bytes;
}

void Device::audit() const {
  check::count_check(check::Subsystem::kLedger);
  std::string what;
  if (!ledger_.empty()) {
    what += std::to_string(ledger_.size()) + " leaked block(s):";
    for (const auto& [alloc_id, entry] : ledger_) {
      what += " [id " + std::to_string(alloc_id) + ", " + human_bytes(entry.bytes) +
              (entry.label.empty() ? "" : ", " + entry.label) + "]";
    }
  }
  if (stats_.double_frees > 0) {
    if (!what.empty()) what += "; ";
    what += std::to_string(stats_.double_frees) + " double free(s) recorded";
  }
  if (!what.empty()) {
    check::count_failure(check::Subsystem::kLedger);
    throw Error(ErrorCode::kInternal,
                "device " + std::to_string(id_) + " memory ledger audit failed: " + what);
  }
}

}  // namespace gpumip::gpu
