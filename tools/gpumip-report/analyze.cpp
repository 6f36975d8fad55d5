#include "analyze.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "json.hpp"

namespace gpumip::tracetool {

namespace {

// The JSON DOM lives in json.{hpp,cpp}, shared with the report engine.

// ---- interval arithmetic ---------------------------------------------------

using Interval = std::pair<double, double>;  // [begin, end) in microseconds

/// Total length covered by the union of `intervals` (merges overlaps).
double union_length(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_begin = 0.0;
  double cur_end = -1.0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (iv.second <= iv.first) continue;
    if (!open || iv.first > cur_end) {
      if (open) total += cur_end - cur_begin;
      cur_begin = iv.first;
      cur_end = iv.second;
      open = true;
    } else {
      cur_end = std::max(cur_end, iv.second);
    }
  }
  if (open) total += cur_end - cur_begin;
  return total;
}

/// Length of union(a) ∩ union(b): sweep both merged edge lists.
double intersection_length(const std::vector<Interval>& a, const std::vector<Interval>& b) {
  // Merge each side first so intra-side overlaps do not double-count.
  struct Edge {
    double at;
    int side;
    int delta;
  };
  std::vector<Edge> edges;
  auto add_side = [&edges](std::vector<Interval> ivs, int side) {
    std::sort(ivs.begin(), ivs.end());
    double cur_begin = 0.0;
    double cur_end = -1.0;
    bool open = false;
    auto flush = [&] {
      if (open) {
        edges.push_back({cur_begin, side, +1});
        edges.push_back({cur_end, side, -1});
      }
    };
    for (const Interval& iv : ivs) {
      if (iv.second <= iv.first) continue;
      if (!open || iv.first > cur_end) {
        flush();
        cur_begin = iv.first;
        cur_end = iv.second;
        open = true;
      } else {
        cur_end = std::max(cur_end, iv.second);
      }
    }
    flush();
  };
  add_side(a, 0);
  add_side(b, 1);
  std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
    if (x.at != y.at) return x.at < y.at;
    return x.delta < y.delta;  // close before open at the same instant
  });
  int depth[2] = {0, 0};
  double overlap = 0.0;
  double last = 0.0;
  for (const Edge& e : edges) {
    if (depth[0] > 0 && depth[1] > 0) overlap += e.at - last;
    depth[e.side] += e.delta;
    last = e.at;
  }
  return overlap;
}

/// B/E pairing per (pid, tid): returns [begin, end) intervals for events
/// whose name satisfies `pick` (nested pairs pair LIFO, like the recorder).
std::vector<Interval> span_intervals(const std::vector<AnalyzerEvent>& events,
                                     int pid, long long tid, bool wait_spans) {
  auto is_wait = [](const AnalyzerEvent& ev) { return ev.name == "gpumip.simmpi.recv.wait"; };
  std::vector<Interval> out;
  std::vector<const AnalyzerEvent*> stack;
  for (const AnalyzerEvent& ev : events) {
    if (ev.pid != pid || ev.tid != tid) continue;
    if (ev.ph == 'B') {
      stack.push_back(&ev);
    } else if (ev.ph == 'E' && !stack.empty()) {
      const AnalyzerEvent* begin = stack.back();
      stack.pop_back();
      if (is_wait(*begin) == wait_spans) out.emplace_back(begin->ts, ev.ts);
    } else if (ev.ph == 'X' && !wait_spans) {
      out.emplace_back(ev.ts, ev.ts + ev.dur);
    }
  }
  return out;
}

constexpr double kMicro = 1e-6;  // exported ts/dur are microseconds

/// Reads the number at `key` of `obj` (`fallback` when absent or not a
/// number) into `out`, truncated toward zero. Fails with an error naming
/// `field` when the value is outside T's range, where the conversion would
/// be undefined behaviour (`"pid": 1e300`, `"dropped": -1`).
template <typename T>
bool read_integral(const JsonValue* obj, const char* key, double fallback,
                   const std::string& field, T& out, std::string& error) {
  const double value = std::trunc(number_or(obj == nullptr ? nullptr : obj->find(key), fallback));
  // Both bounds are exact doubles: min is 0 or -2^k, and max + 1 is 2^k.
  if (!(value >= static_cast<double>(std::numeric_limits<T>::min()) &&
        value < static_cast<double>(std::numeric_limits<T>::max()) + 1.0)) {
    error = field + " is out of range";
    return false;
  }
  out = static_cast<T>(value);
  return true;
}

}  // namespace

bool parse_trace(const std::string& json, Trace& out, std::string& error) {
  JsonValue root;
  JsonReader reader(json);
  if (!reader.parse(root, error)) return false;

  const JsonValue* events = nullptr;
  if (root.type == JsonValue::Type::kArray) {
    events = &root;  // bare-array form of the trace-event format
  } else if (root.type == JsonValue::Type::kObject) {
    events = root.find("traceEvents");
    if (!read_integral(root.find("otherData"), "dropped", 0.0, "otherData.dropped", out.dropped,
                       error)) {
      return false;
    }
  }
  if (events == nullptr || events->type != JsonValue::Type::kArray) {
    error = "document has no traceEvents array";
    return false;
  }

  out.events.clear();
  for (const JsonValue& e : events->array) {
    if (e.type != JsonValue::Type::kObject) {
      error = "traceEvents entry is not an object";
      return false;
    }
    AnalyzerEvent ev;
    ev.name = string_or(e.find("name"), "");
    const std::string ph = string_or(e.find("ph"), "?");
    ev.ph = ph.empty() ? '?' : ph[0];
    const std::string where = "traceEvents[" + std::to_string(out.events.size()) + "].";
    const JsonValue* args = e.find("args");
    if (!read_integral(&e, "pid", 0.0, where + "pid", ev.pid, error) ||
        !read_integral(&e, "tid", 0.0, where + "tid", ev.tid, error) ||
        !read_integral(args, "rank", -1.0, where + "args.rank", ev.rank, error)) {
      return false;
    }
    ev.ts = number_or(e.find("ts"), 0.0);
    ev.dur = number_or(e.find("dur"), 0.0);
    ev.flow_id = string_or(e.find("id"), "");
    if (args != nullptr) {
      ev.lane = string_or(args->find("lane"), "");
      ev.arg = number_or(args->find("arg"), 0.0);
      // Metadata events label the processes; remember which pid carries the
      // simulated timeline (the exporter's default is pid 1).
      if (ev.ph == 'M' && ev.name == "process_name" &&
          string_or(args->find("name"), "") == "simulated time") {
        out.sim_pid = ev.pid;
      }
    }
    out.events.push_back(std::move(ev));
  }
  return true;
}

Report analyze(const Trace& trace) {
  Report report;
  report.dropped = trace.dropped;

  // Stable per-(pid,tid) time order; the exporter sorts, but analysis
  // should not depend on it (hand-written fixtures, other producers).
  std::vector<AnalyzerEvent> events = trace.events;
  std::stable_sort(events.begin(), events.end(), [](const AnalyzerEvent& a, const AnalyzerEvent& b) {
    if (a.pid != b.pid) return a.pid < b.pid;
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.ts < b.ts;
  });

  for (const AnalyzerEvent& ev : events) {
    if (ev.ph != 'M') ++report.events;
  }

  // ---- per-rank breakdown (simulated pid, cpu lane) ------------------------
  std::map<int, std::vector<const AnalyzerEvent*>> by_rank;
  for (const AnalyzerEvent& ev : events) {
    if (ev.pid != trace.sim_pid || ev.ph == 'M') continue;
    report.makespan_seconds = std::max(report.makespan_seconds, (ev.ts + ev.dur) * kMicro);
    if (ev.rank >= 0 && ev.lane == "cpu") by_rank[ev.rank].push_back(&ev);
  }
  for (const auto& [rank, evs] : by_rank) {
    RankBreakdown rb;
    rb.rank = rank;
    rb.events = static_cast<long>(evs.size());
    double first = evs.front()->ts;
    double last = evs.front()->ts;
    long long tid = evs.front()->tid;
    for (const AnalyzerEvent* ev : evs) {
      first = std::min(first, ev->ts);
      last = std::max(last, ev->ts);
    }
    std::vector<Interval> busy = span_intervals(events, trace.sim_pid, tid, /*wait_spans=*/false);
    std::vector<Interval> blocked = span_intervals(events, trace.sim_pid, tid, /*wait_spans=*/true);
    rb.span_seconds = (last - first) * kMicro;
    rb.blocked_seconds = union_length(blocked) * kMicro;
    // Busy excludes blocked (a wait nested under a span is not compute);
    // idle is whatever the union of both leaves uncovered.
    const double busy_len = union_length(busy);
    rb.busy_seconds = (busy_len - intersection_length(busy, blocked)) * kMicro;
    std::vector<Interval> either = busy;
    either.insert(either.end(), blocked.begin(), blocked.end());
    rb.idle_seconds = rb.span_seconds - union_length(either) * kMicro;
    report.ranks.push_back(rb);
  }

  // ---- flow matching and the critical path ---------------------------------
  struct FlowPair {
    const AnalyzerEvent* start = nullptr;
    const AnalyzerEvent* finish = nullptr;
  };
  std::map<std::string, FlowPair> flows;
  for (const AnalyzerEvent& ev : events) {
    if (ev.ph == 's') flows[ev.flow_id].start = &ev;
    if (ev.ph == 'f') flows[ev.flow_id].finish = &ev;
  }
  report.flows_total = static_cast<long>(flows.size());
  for (const auto& [id, pair] : flows) {
    if (pair.start != nullptr && pair.finish != nullptr) ++report.flows_matched;
  }

  // Backward chaining: start from the rank that finishes last; repeatedly
  // jump from the latest matched delivery at or before the cursor to its
  // send site on the source rank. Each jump is one dependency hop of the
  // makespan's critical path.
  const AnalyzerEvent* tail = nullptr;
  for (const auto& [rank, evs] : by_rank) {
    for (const AnalyzerEvent* ev : evs) {
      if (tail == nullptr || ev->ts > tail->ts) tail = ev;
    }
  }
  if (tail != nullptr) {
    report.critical_end_seconds = tail->ts * kMicro;
    int rank = tail->rank;
    double cursor = tail->ts;
    double start_ts = cursor;
    for (int guard = 0; guard < 100000; ++guard) {
      const AnalyzerEvent* best = nullptr;
      const AnalyzerEvent* best_src = nullptr;
      for (const auto& [id, pair] : flows) {
        if (pair.start == nullptr || pair.finish == nullptr) continue;
        if (pair.finish->rank != rank || pair.finish->ts > cursor) continue;
        if (pair.start->ts >= pair.finish->ts) continue;  // refuse time travel
        if (best == nullptr || pair.finish->ts > best->ts) {
          best = pair.finish;
          best_src = pair.start;
        }
      }
      if (best == nullptr) {
        auto it = by_rank.find(rank);
        if (it != by_rank.end()) {
          for (const AnalyzerEvent* ev : it->second) start_ts = std::min(start_ts, ev->ts);
        }
        break;
      }
      CriticalHop hop;
      hop.from_rank = best_src->rank;
      hop.to_rank = rank;
      hop.send_ts_seconds = best_src->ts * kMicro;
      hop.recv_ts_seconds = best->ts * kMicro;
      report.critical_path.push_back(hop);
      rank = best_src->rank;
      cursor = best_src->ts;
      start_ts = cursor;
    }
    report.critical_start_seconds = start_ts * kMicro;
    std::reverse(report.critical_path.begin(), report.critical_path.end());
  }

  // ---- device lanes: transfer/compute overlap per rank ---------------------
  std::map<int, std::array<std::vector<Interval>, 3>> lanes;  // 0=h2d 1=d2h 2=kernel
  for (const AnalyzerEvent& ev : events) {
    if (ev.ph != 'X' || ev.pid != trace.sim_pid) continue;
    int lane = -1;
    if (ev.lane == "h2d") lane = 0;
    if (ev.lane == "d2h") lane = 1;
    if (ev.lane == "kernel") lane = 2;
    if (lane < 0) continue;
    lanes[ev.rank][static_cast<std::size_t>(lane)].emplace_back(ev.ts, ev.ts + ev.dur);
  }
  for (const auto& [rank, lns] : lanes) {
    DeviceBreakdown db;
    db.rank = rank;
    db.h2d_seconds = union_length(lns[0]) * kMicro;
    db.d2h_seconds = union_length(lns[1]) * kMicro;
    db.kernel_seconds = union_length(lns[2]) * kMicro;
    std::vector<Interval> transfers = lns[0];
    transfers.insert(transfers.end(), lns[1].begin(), lns[1].end());
    db.overlap_seconds = intersection_length(transfers, lns[2]) * kMicro;
    report.devices.push_back(db);
  }

  // ---- cut round-trip latency ----------------------------------------------
  std::map<std::pair<int, long long>, std::vector<double>> cut_stack;
  for (const AnalyzerEvent& ev : events) {
    if (ev.name != "gpumip.mip.cuts.round") continue;
    auto& stack = cut_stack[{ev.pid, ev.tid}];
    if (ev.ph == 'B') {
      stack.push_back(ev.ts);
    } else if (ev.ph == 'E' && !stack.empty()) {
      const double latency = (ev.ts - stack.back()) * kMicro;
      stack.pop_back();
      ++report.cut_rounds;
      report.cut_latency_total_seconds += latency;
      report.cut_latency_max_seconds = std::max(report.cut_latency_max_seconds, latency);
    }
  }

  return report;
}

std::string format_report(const Report& report) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(6);
  out << "trace: " << report.events << " events, " << report.flows_matched << "/"
      << report.flows_total << " flows matched, " << report.dropped << " dropped, makespan "
      << report.makespan_seconds << "s\n";

  out << "critical path: " << report.critical_path.size() << " cross-rank hop(s), "
      << report.critical_start_seconds << "s -> " << report.critical_end_seconds << "s\n";
  for (const CriticalHop& hop : report.critical_path) {
    out << "  rank " << hop.from_rank << " @" << hop.send_ts_seconds << "s -> rank "
        << hop.to_rank << " @" << hop.recv_ts_seconds << "s\n";
  }

  out << "ranks:\n";
  for (const RankBreakdown& rb : report.ranks) {
    out << "  rank " << rb.rank << ": span " << rb.span_seconds << "s, busy " << rb.busy_seconds
        << "s, blocked-on-recv " << rb.blocked_seconds << "s, idle " << rb.idle_seconds << "s ("
        << rb.events << " events)\n";
  }

  if (!report.devices.empty()) {
    out << "device lanes:\n";
    for (const DeviceBreakdown& db : report.devices) {
      out << "  rank " << db.rank << ": h2d " << db.h2d_seconds << "s, d2h " << db.d2h_seconds
          << "s, kernel " << db.kernel_seconds << "s, transfer/compute overlap "
          << db.overlap_seconds << "s\n";
    }
  }

  if (report.cut_rounds > 0) {
    out << "cut rounds: " << report.cut_rounds << ", mean latency "
        << report.cut_latency_total_seconds / static_cast<double>(report.cut_rounds)
        << "s, max " << report.cut_latency_max_seconds << "s\n";
  }
  return out.str();
}

}  // namespace gpumip::tracetool
