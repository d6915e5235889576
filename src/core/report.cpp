#include "core/report.hpp"

#include <cstdarg>
#include <cinttypes>
#include <cstdio>

#include "core/teps.hpp"

namespace hbc::core {

namespace {

void append_line(std::string& out, const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  out += buffer;
  out += '\n';
}

}  // namespace

std::string format_summary(const BCResult& result) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "%s: %" PRIu64 " roots, %.4g s, %.1f MTEPS%s",
                to_string(result.strategy), result.roots_processed,
                result.time_seconds, as_mteps(result.teps),
                result.approximate ? " [approximate]" : "");
  return buffer;
}

std::string format_report(const graph::CSRGraph& g, const BCResult& result,
                          const ReportOptions& options) {
  std::string out;
  append_line(out, "graph      %s", g.summary().c_str());
  append_line(out, "strategy   %s%s", to_string(result.strategy),
              result.approximate ? " (approximate)" : "");
  append_line(out, "roots      %" PRIu64, result.roots_processed);
  append_line(out, "time       %.6f s %s", result.time_seconds,
              uses_gpu_model(result.strategy) ? "(simulated device)" : "(wall clock)");
  append_line(out, "TEPS       %.2f MTEPS (Eq. 4)", as_mteps(result.teps));

  if (uses_gpu_model(result.strategy)) {
    const auto& m = result.kernel_metrics;
    if (options.counters) {
      append_line(out, "traversed  %" PRIu64 " edges (useful work)",
                  m.counters.edges_traversed);
      append_line(out, "inspected  %" PRIu64 " edges (incl. futile level checks)",
                  m.counters.edges_inspected);
      append_line(out, "atomics    %" PRIu64, m.counters.atomic_ops);
      append_line(out, "levels     %" PRIu64 " BFS iterations (%" PRIu64
                       " queue-driven, %" PRIu64 " scan-driven)",
                  m.counters.bfs_iterations, m.we_levels, m.ep_levels);
      if (m.sampling_median_depth > 0.0) {
        append_line(out, "sampling   median depth %.0f -> %s",
                    m.sampling_median_depth,
                    m.sampling_chose_edge_parallel ? "edge-parallel"
                                                   : "work-efficient");
      }
    }
    if (options.memory) {
      append_line(out, "device mem %.1f MiB high water",
                  static_cast<double>(m.device_memory_high_water) / (1024.0 * 1024.0));
    }
  }

  if (options.top_k > 0) {
    append_line(out, "top %zu vertices:", options.top_k);
    for (const auto& [v, score] : top_k(result.scores, options.top_k)) {
      append_line(out, "  %10u  %16.4f", v, score);
    }
  }
  return out;
}

}  // namespace hbc::core
