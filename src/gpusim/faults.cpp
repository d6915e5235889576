#include "gpusim/faults.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace hbc::gpusim {

namespace {

// splitmix64: the same stand-alone mixer the synthetic generators use.
// One evaluation per (seed, spec, root) triple; no sequential state, so
// targeting decisions are independent of visit order.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double unit_hash(std::uint64_t seed, std::uint64_t spec, std::uint64_t root) noexcept {
  const std::uint64_t h = mix64(seed ^ mix64(spec + 1) ^ mix64(root ^ 0x5bc1u));
  return static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
}

constexpr std::uint64_t kDefaultTimeoutCycles = 1'000'000;
constexpr std::uint64_t kDefaultEccCycles = 10'000;

bool is_execution_kind(FaultKind k) noexcept {
  return k == FaultKind::EccError || k == FaultKind::Timeout;
}

std::uint64_t effective_after(const FaultSpec& s) noexcept {
  if (s.after_cycles != 0) return s.after_cycles;
  return s.kind == FaultKind::Timeout ? kDefaultTimeoutCycles : kDefaultEccCycles;
}

}  // namespace

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::KernelLaunch: return "launch";
    case FaultKind::DeviceAlloc: return "alloc";
    case FaultKind::EccError: return "ecc";
    case FaultKind::Timeout: return "timeout";
  }
  return "unknown";
}

DeviceFault::DeviceFault(FaultKind kind, std::uint32_t root, std::uint32_t block,
                         bool transient)
    : std::runtime_error([&] {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "simulated device fault: %s (%s) at root %u on block %u",
                      to_string(kind), transient ? "transient" : "persistent",
                      root, block);
        return std::string(buf);
      }()),
      kind_(kind),
      root_(root),
      block_(block),
      transient_(transient) {}

FaultReport& FaultReport::operator+=(const FaultReport& other) {
  faults_injected += other.faults_injected;
  retries += other.retries;
  rescued_roots += other.rescued_roots;
  host_roots.insert(host_roots.end(), other.host_roots.begin(), other.host_roots.end());
  std::sort(host_roots.begin(), host_roots.end(),
            [](const RootFailure& a, const RootFailure& b) { return a.root < b.root; });
  return *this;
}

void FaultPlan::add(FaultSpec spec) {
  if (spec.rate < 0.0 || spec.rate > 1.0)
    throw std::invalid_argument("FaultSpec rate must be in [0, 1]");
  if (spec.fail_attempts == 0) spec.fail_attempts = 1;
  std::sort(spec.roots.begin(), spec.roots.end());
  spec.roots.erase(std::unique(spec.roots.begin(), spec.roots.end()),
                   spec.roots.end());
  specs_.push_back(std::move(spec));
}

bool FaultPlan::spec_hits(std::size_t spec_index, std::uint32_t root) const noexcept {
  const FaultSpec& s = specs_[spec_index];
  if (std::binary_search(s.roots.begin(), s.roots.end(), root)) return true;
  return s.rate > 0.0 && unit_hash(seed_, spec_index, root) < s.rate;
}

bool FaultPlan::targets_root(std::uint32_t root) const noexcept {
  for (std::size_t i = 0; i < specs_.size(); ++i)
    if (spec_hits(i, root)) return true;
  return false;
}

std::optional<FaultPlan::Launch> FaultPlan::launch_fault(
    std::uint32_t root, std::uint32_t attempt) const noexcept {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const FaultSpec& s = specs_[i];
    if (is_execution_kind(s.kind)) continue;
    if (!spec_hits(i, root)) continue;
    if (s.transient && attempt >= s.fail_attempts) continue;  // cleared
    return Launch{s.kind, s.transient};
  }
  return std::nullopt;
}

std::optional<FaultPlan::Execution> FaultPlan::execution_fault(
    std::uint32_t root, std::uint32_t attempt) const noexcept {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const FaultSpec& s = specs_[i];
    if (!is_execution_kind(s.kind)) continue;
    if (!spec_hits(i, root)) continue;
    if (s.transient && attempt >= s.fail_attempts) continue;
    return Execution{s.kind, s.transient, effective_after(s)};
  }
  return std::nullopt;
}

std::string FaultPlan::signature() const {
  std::string out = "seed=" + std::to_string(seed_);
  for (const FaultSpec& s : specs_) {
    out += ';';
    out += to_string(s.kind);
    if (s.rate > 0.0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), ",rate=%.17g", s.rate);
      out += buf;
    }
    if (!s.roots.empty()) {
      out += ",roots=";
      for (std::size_t i = 0; i < s.roots.size(); ++i) {
        if (i) out += ':';
        out += std::to_string(s.roots[i]);
      }
    }
    out += s.transient ? ",transient" : ",persistent";
    if (s.transient && s.fail_attempts != 1)
      out += ",attempts=" + std::to_string(s.fail_attempts);
    if (s.after_cycles != 0) out += ",after=" + std::to_string(s.after_cycles);
  }
  return out;
}

namespace {

[[noreturn]] void bad_spec(std::string_view what, std::string_view token) {
  throw std::invalid_argument("bad fault spec: " + std::string(what) + " in '" +
                              std::string(token) + "'");
}

std::uint64_t parse_u64(std::string_view text, std::string_view token) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size())
    bad_spec("expected integer", token);
  return value;
}

double parse_rate(std::string_view text, std::string_view token) {
  // std::from_chars<double> is spotty across libstdc++ versions; strtod on a
  // bounded copy is portable and the strings are tiny.
  const std::string copy(text);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || !(value >= 0.0) || value > 1.0)
    bad_spec("rate must be a number in [0, 1]", token);
  return value;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::string_view rest = spec;
  bool any = false;
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    std::string_view clause = rest.substr(0, semi);
    rest = semi == std::string_view::npos ? std::string_view{}
                                          : rest.substr(semi + 1);
    if (clause.empty()) continue;

    if (clause.rfind("seed=", 0) == 0) {
      plan.seed_ = parse_u64(clause.substr(5), clause);
      continue;
    }

    FaultSpec s;
    std::size_t comma = clause.find(',');
    const std::string_view kind = clause.substr(0, comma);
    if (kind == "launch") s.kind = FaultKind::KernelLaunch;
    else if (kind == "alloc") s.kind = FaultKind::DeviceAlloc;
    else if (kind == "ecc") s.kind = FaultKind::EccError;
    else if (kind == "timeout") s.kind = FaultKind::Timeout;
    else bad_spec("unknown fault kind", kind);

    std::string_view opts = comma == std::string_view::npos
                                ? std::string_view{}
                                : clause.substr(comma + 1);
    while (!opts.empty()) {
      comma = opts.find(',');
      const std::string_view opt = opts.substr(0, comma);
      opts = comma == std::string_view::npos ? std::string_view{}
                                             : opts.substr(comma + 1);
      if (opt == "transient") s.transient = true;
      else if (opt == "persistent") s.transient = false;
      else if (opt.rfind("rate=", 0) == 0) s.rate = parse_rate(opt.substr(5), opt);
      else if (opt.rfind("attempts=", 0) == 0)
        s.fail_attempts = static_cast<std::uint32_t>(parse_u64(opt.substr(9), opt));
      else if (opt.rfind("after=", 0) == 0) s.after_cycles = parse_u64(opt.substr(6), opt);
      else if (opt.rfind("roots=", 0) == 0) {
        std::string_view list = opt.substr(6);
        if (list.empty()) bad_spec("empty roots list", opt);
        while (!list.empty()) {
          const std::size_t colon = list.find(':');
          s.roots.push_back(static_cast<std::uint32_t>(
              parse_u64(list.substr(0, colon), opt)));
          list = colon == std::string_view::npos ? std::string_view{}
                                                 : list.substr(colon + 1);
        }
      } else {
        bad_spec("unknown option", opt);
      }
    }
    if (s.rate == 0.0 && s.roots.empty())
      bad_spec("spec targets nothing (need rate= or roots=)", clause);
    plan.add(std::move(s));
    any = true;
  }
  if (!any) throw std::invalid_argument("fault spec has no fault clauses: '" + spec + "'");
  return plan;
}

std::shared_ptr<const FaultPlan> FaultPlan::parse_shared(const std::string& spec) {
  return std::make_shared<const FaultPlan>(parse(spec));
}

}  // namespace hbc::gpusim
