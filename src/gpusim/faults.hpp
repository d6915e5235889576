#pragma once

// Deterministic fault injection for the simulated device.
//
// A FaultPlan is a seeded, immutable description of which simulated
// device faults fire where. Root selection is a pure hash of
// (seed, spec index, root id), so the same plan injects the same faults
// into the same roots no matter how many host threads execute the
// simulated blocks, which block a root lands on, or how often the run is
// repeated — the property the resilience tests lean on ("recovery is
// bitwise-deterministic for a given FaultPlan seed").
//
// Four fault kinds model the failure modes real GPU BC deployments see:
//
//   KernelLaunch — the per-root kernel launch fails (sticky context error,
//                  driver hiccup). Surfaces before any work is done.
//   DeviceAlloc  — allocating the root's device scratch fails
//                  (fragmentation, concurrent tenants). Also pre-work.
//   EccError     — an uncorrectable ECC error is reported while the
//                  kernel runs; surfaces `after` simulated cycles into
//                  the root.
//   Timeout      — the kernel overruns its cycle budget (`after` cycles)
//                  and is killed by the watchdog; models hangs/livelocks.
//
// Transient faults clear after `fail_attempts` launches of the same root
// (the retry path recovers); persistent faults fire on every attempt (the
// host rescue takes over: the driver runs the root on the host CPU engine,
// with the same bits). Faults surface as hbc::DeviceFault; the
// kernels::BlockDriver catches them at root granularity, retries them and
// records the roots the host finished in the run's FaultReport.

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace hbc::gpusim {

enum class FaultKind : std::uint8_t {
  KernelLaunch,
  DeviceAlloc,
  EccError,
  Timeout,
};

const char* to_string(FaultKind kind) noexcept;

/// The typed exception every injected fault surfaces as.
class DeviceFault : public std::runtime_error {
 public:
  static constexpr std::uint32_t kNoRoot = 0xffffffffu;

  DeviceFault(FaultKind kind, std::uint32_t root, std::uint32_t block, bool transient);

  FaultKind kind() const noexcept { return kind_; }
  std::uint32_t root() const noexcept { return root_; }
  std::uint32_t block() const noexcept { return block_; }
  /// Transient faults are worth retrying; persistent ones are not.
  bool transient() const noexcept { return transient_; }

 private:
  FaultKind kind_;
  std::uint32_t root_;
  std::uint32_t block_;
  bool transient_;
};

/// One injection rule. A root is targeted when the seeded hash admits it
/// under `rate` or when it is listed explicitly in `roots`.
struct FaultSpec {
  FaultKind kind = FaultKind::KernelLaunch;
  bool transient = true;
  /// Fraction of roots hit by the seeded hash, in [0, 1].
  double rate = 0.0;
  /// Explicit target roots (unioned with the rate-selected set).
  std::vector<std::uint32_t> roots;
  /// Transient only: launches [0, fail_attempts) of a targeted root fail,
  /// later attempts succeed — "the condition cleared by the retry".
  std::uint32_t fail_attempts = 1;
  /// Execution-stage kinds: simulated cycles into the root at which the
  /// fault fires (Timeout = watchdog budget, EccError = error latency).
  /// 0 selects the kind's default (Timeout 1M cycles, EccError 10k).
  std::uint64_t after_cycles = 0;
};

/// What the driver arms on a block before launching a root: the block's
/// cycle ledger trips the fault once it crosses `trip_cycles`.
struct FaultArm {
  bool armed = false;
  FaultKind kind = FaultKind::Timeout;
  std::uint32_t root = DeviceFault::kNoRoot;
  bool transient = true;
  std::uint64_t trip_cycles = 0;  // absolute block-cycle threshold
};

/// A root no device launch completed within its attempt budget; the host
/// ran it instead.
struct RootFailure {
  std::uint32_t root = 0;
  FaultKind kind = FaultKind::KernelLaunch;  // kind of the last fault seen
  std::uint32_t attempts = 0;                // launches consumed
  bool transient = true;                     // last fault's transience
};

/// Per-run fault accounting, filled by kernels::BlockDriver and surfaced
/// through core::BCResult. Every root's contribution is present whatever
/// the report says — scores are bitwise-identical to a fault-free run of
/// the same roots; the report only says how they were recovered.
struct FaultReport {
  std::uint64_t faults_injected = 0;  // DeviceFaults thrown
  std::uint64_t retries = 0;          // relaunches after a transient fault
  std::uint64_t rescued_roots = 0;    // recovered by the recovery sweep
  std::vector<RootFailure> host_roots;  // finished on the host, ascending

  bool clean() const noexcept { return faults_injected == 0 && host_roots.empty(); }

  FaultReport& operator+=(const FaultReport& other);
};

class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  void add(FaultSpec spec);

  std::uint64_t seed() const noexcept { return seed_; }
  bool empty() const noexcept { return specs_.empty(); }
  const std::vector<FaultSpec>& specs() const noexcept { return specs_; }

  /// True when any spec targets `root` (at any attempt).
  bool targets_root(std::uint32_t root) const noexcept;

  /// Launch-stage fault (KernelLaunch / DeviceAlloc) for launching `root`
  /// the `attempt`-th time, or nullopt. First matching spec wins.
  struct Launch {
    FaultKind kind;
    bool transient;
  };
  std::optional<Launch> launch_fault(std::uint32_t root,
                                     std::uint32_t attempt) const noexcept;

  /// Execution-stage fault (EccError / Timeout) to arm for this launch,
  /// or nullopt. `trip_cycles` in the result is relative to root start.
  struct Execution {
    FaultKind kind;
    bool transient;
    std::uint64_t after_cycles;
  };
  std::optional<Execution> execution_fault(std::uint32_t root,
                                           std::uint32_t attempt) const noexcept;

  /// Canonical serialization: parse(signature()) round-trips, and equal
  /// signatures mean identical injection behaviour. hbc::service folds
  /// this into its cache key so fault-injected requests never collide
  /// with clean ones.
  std::string signature() const;

  /// Parse the CLI grammar (docs/resilience.md):
  ///   spec   := clause (';' clause)*
  ///   clause := 'seed=' N | kind (',' opt)*
  ///   kind   := 'launch' | 'alloc' | 'ecc' | 'timeout'
  ///   opt    := 'rate=' F | 'roots=' N (':' N)* | 'transient'
  ///           | 'persistent' | 'attempts=' N | 'after=' N
  /// e.g. "seed=9;launch,rate=0.05;timeout,roots=3:17,persistent,after=20000".
  /// Throws std::invalid_argument on malformed input.
  static FaultPlan parse(const std::string& spec);

  /// parse() boxed for core::Options / kernels::RunConfig.
  static std::shared_ptr<const FaultPlan> parse_shared(const std::string& spec);

 private:
  bool spec_hits(std::size_t spec_index, std::uint32_t root) const noexcept;

  std::uint64_t seed_ = 1;
  std::vector<FaultSpec> specs_;
};

}  // namespace hbc::gpusim

namespace hbc {
using gpusim::DeviceFault;  // the issue-facing name: hbc::DeviceFault
}  // namespace hbc
