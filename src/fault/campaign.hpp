// Fault-injection campaigns: stratified single-bit-flip injections over the
// sites an injector can reach, producing per-instruction-kind AVFs (used by
// the Eq. 2 prediction) and the overall SDC/DUE/Masked AVF split of Fig. 4.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/workload.hpp"
#include "fault/budget.hpp"
#include "fault/injector.hpp"
#include "obs/propagation.hpp"
#include "obs/run_context.hpp"

namespace gpurel::fault {

struct OutcomeCounts {
  std::uint64_t masked = 0;
  std::uint64_t sdc = 0;
  std::uint64_t due = 0;

  std::uint64_t total() const { return masked + sdc + due; }
  double avf_sdc() const {
    return total() ? static_cast<double>(sdc) / total() : 0.0;
  }
  double avf_due() const {
    return total() ? static_cast<double>(due) / total() : 0.0;
  }
  double masked_fraction() const {
    return total() ? static_cast<double>(masked) / total() : 0.0;
  }
  ConfidenceInterval sdc_ci() const { return wilson_ci95(sdc, total()); }
  ConfidenceInterval due_ci() const { return wilson_ci95(due, total()); }

  void add(core::Outcome o);
  void merge(const OutcomeCounts& other);
};

/// Dynamic fault-site counts of one workload under one injector's
/// eligibility rules, measured by a fault-free counting run. A campaign
/// normally performs this run itself; callers launching several campaigns
/// over the same (injector, workload) pair — fork comparisons,
/// throughput benchmarks — can measure once with count_sites() and share the
/// result through CampaignConfig::sites, skipping the redundant fault-free
/// runs. Sharing is bit-identity-preserving: trial seeds and site sampling
/// depend only on these counts, not on how they were obtained.
struct SiteCounts {
  std::array<std::uint64_t, static_cast<std::size_t>(isa::UnitKind::kCount)>
      per_kind{};                  // eligible IOV sites by unit kind
  std::uint64_t pred = 0;          // predicate-writing lane executions
  std::uint64_t stores = 0;        // lane-level STG/STS executions
  std::uint64_t total_lane = 0;    // all lane executions (IA/RF anchor)
};

struct KindStats {
  OutcomeCounts counts;
  std::uint64_t dynamic_sites = 0;  // eligible lane-level executions
};

/// DUE outcomes split by core::DueCause (how the DUE manifested). Tallied
/// over every injected trial; all-zero — and skipped by the serializers —
/// when the campaign produced no DUEs.
struct DueCauseCounts {
  /// Indexed by core::DueCause; the None entry stays zero.
  std::array<std::uint64_t, core::kDueCauses> by_cause{};

  std::uint64_t of(core::DueCause c) const {
    return by_cause[static_cast<std::size_t>(c)];
  }
  std::uint64_t total() const;
  void add(core::DueCause c);
  void merge(const DueCauseCounts& other);
};

struct CampaignResult {
  std::string injector;
  std::string workload;

  /// IOV outcome tallies, stratified by unit kind.
  std::array<KindStats, static_cast<std::size_t>(isa::UnitKind::kCount)> per_kind{};
  /// Outcome tallies of every other stratum, indexed by SiteClass (the
  /// InstructionOutput entry stays zero). The micro-architectural entries
  /// are all-zero on architectural campaigns and serialized only when
  /// exercised, keeping pre-existing results byte-identical.
  std::array<OutcomeCounts, kSiteClasses> by_class{};
  /// Site population of every class, indexed by SiteClass: for the
  /// architectural classes the counting run's dynamic counts (IOV: eligible
  /// outputs; RF and IA: all lane executions; PR: predicate writes; STV and
  /// STA: lane-level STG/STS executions), for the micro-architectural ones
  /// the static site counts of the classes the injector reaches.
  std::array<std::uint64_t, kSiteClasses> sites{};

  /// DUE-cause split over every injected trial of this shard.
  DueCauseCounts due_causes;

  /// Aggregate fault-propagation tables (CampaignConfig::propagation); absent
  /// on plain campaigns, so their serialized results are byte-identical to
  /// pre-propagation builds.
  std::optional<obs::PropagationReport> propagation;

  const KindStats& kind(isa::UnitKind k) const {
    return per_kind[static_cast<std::size_t>(k)];
  }
  const OutcomeCounts& of(SiteClass c) const {
    return by_class[static_cast<std::size_t>(c)];
  }
  OutcomeCounts& of(SiteClass c) {
    return by_class[static_cast<std::size_t>(c)];
  }
  std::uint64_t sites_of(SiteClass c) const {
    return sites[static_cast<std::size_t>(c)];
  }
  std::uint64_t& sites_of(SiteClass c) {
    return sites[static_cast<std::size_t>(c)];
  }
  /// Per-kind SDC AVF (AVF_INST_i in Eq. 2); 0 when the kind was not hit.
  double avf_sdc(isa::UnitKind k) const { return kind(k).counts.avf_sdc(); }
  double avf_due(isa::UnitKind k) const { return kind(k).counts.avf_due(); }

  /// Overall AVF: per-kind results weighted by each kind's dynamic site
  /// count (plus the predicate and micro-architectural strata when they were
  /// exercised), matching a uniform-over-reachable-sites campaign.
  double overall_avf_sdc() const;
  double overall_avf_due() const;
  /// 1 - overall_avf_sdc() - overall_avf_due() when at least one weighted
  /// stratum was exercised; 0 otherwise (mirroring the zero-denominator
  /// guard of the AVF accessors — an empty campaign masks nothing).
  double overall_masked() const;

  std::uint64_t total_injections() const;  // every mode, every kind

  /// Fold another shard (or resumed prefix) of the same campaign into this
  /// result. All outcome tallies are integer sums, so merging the shards of
  /// a campaign — in any order — reproduces the single-process result bit
  /// for bit (per-trial seeding makes trial outcomes independent of which
  /// process ran them). Throws std::invalid_argument when the two results
  /// disagree on injector, workload, or site counts: those are per-campaign
  /// constants, so a mismatch means the shards came from different
  /// campaigns.
  void merge(const CampaignResult& other);
};

/// Snapshot of a partially executed shard: the tally of exactly the first
/// `trials_done` trials of this shard's deterministic trial order. A killed
/// shard relaunched with CampaignConfig::resume pointing at its last
/// checkpoint skips those trials and produces a bit-identical final result
/// (per-trial seeding means the skipped trials' outcomes are already fully
/// determined by `partial`).
struct CampaignCheckpoint {
  std::uint64_t trials_done = 0;
  CampaignResult partial;
};

struct CampaignConfig : InjectionBudget, obs::RunContext {
  std::uint64_t seed = 0x1234;
  /// Worker threads; trials are dealt out in guided dynamic chunks (see
  /// fault/trial_engine.hpp), and results are bit-identical at any count.
  unsigned workers = 1;
  /// When set, receives the per-trial simulated-cycle cost, indexed by the
  /// campaign's (deterministic) internal trial order. Consumed by the
  /// fork-equivalence tests; leave null otherwise.
  std::vector<std::uint64_t>* trial_cycles_out = nullptr;
  /// When set, receives the per-trial outcome, indexed like trial_cycles_out
  /// (trials not owned by this shard keep Outcome::Masked). Consumed by the
  /// fork-equivalence tests; leave null otherwise.
  std::vector<core::Outcome>* trial_outcomes_out = nullptr;

  /// Checkpoint-fork trial batching. When the workload is fork-safe
  /// (core::Workload::fork_safe), the campaign simulates the shared
  /// fault-free prefix once, before workers start, snapshotting device state
  /// at evenly spaced epochs; every worker reads that one snapshot set, and
  /// every trial whose injection fires after an epoch resumes from the
  /// deepest valid snapshot instead of re-simulating the prefix. Each chunk
  /// runs sorted by epoch so consecutive trials restore only the state the
  /// previous suffix touched (delta restores). The epoch count:
  ///   - unset (the default): auto_fork_epochs(), chosen from the golden run
  ///     length and the budget's upper bound on the trials this process
  ///     simulates (requested trials split over the shards, less a resumed
  ///     prefix), before the campaign's one fault-free pass, on which the
  ///     site counting rides along with the snapshot capture;
  ///   - 0: plain execution, every trial from the start — the reference path
  ///     the fork-equivalence tests compare against;
  ///   - N: up to exactly N epochs.
  /// Per-trial RNG draws and outcomes are bit-identical at every setting;
  /// only wall-clock changes. Workloads that are not fork-safe always run
  /// plain.
  std::optional<unsigned> fork_epochs;
  /// Fault-propagation flight recorder: when true, every executed trial runs
  /// with an obs::PropagationObserver teed behind the injection observer,
  /// producing a per-trial provenance record (emitted as `propagation_record`
  /// telemetry events in trial order after the run) and the aggregate
  /// CampaignResult::propagation tables. Observer-only: outcome tallies are
  /// bit-identical to a plain campaign (the tee claims no hook family the
  /// injection observer does not already claim). Incompatible with `resume`
  /// (a resumed prefix has no records to aggregate).
  bool propagation = false;
  /// When set (with propagation), receives the per-trial records indexed by
  /// global trial id; trials not owned by this shard keep default records.
  std::vector<obs::PropagationRecord>* propagation_records_out = nullptr;
  /// Precomputed site counts for this exact (injector, workload) pair (see
  /// count_sites). When set, the campaign skips its own fault-free counting
  /// run; results are bit-identical either way. The caller is responsible
  /// for the pairing — counts from a different workload or injector silently
  /// skew site sampling.
  const SiteCounts* sites = nullptr;

  /// Multi-process sharding: this process runs the trials t of the full
  /// deterministic trial list with t % shard_count == shard_index. Site
  /// counts (per-campaign constants) are reported in full by every shard;
  /// outcome tallies cover only the owned trials, so
  /// CampaignResult::merge over all shards equals the unsharded run.
  unsigned shard_index = 0;
  unsigned shard_count = 1;

  /// Emit a CampaignCheckpoint through on_checkpoint every time this many
  /// additional owned trials form a completed contiguous prefix of the
  /// shard's trial order. 0 disables checkpointing. The callback runs under
  /// an internal lock — keep it brief.
  unsigned checkpoint_every = 0;
  std::function<void(const CampaignCheckpoint&)> on_checkpoint;
  /// Resume from a checkpoint previously emitted by this exact shard
  /// (same spec, same shard_index/shard_count): the covered trial prefix is
  /// skipped and its tallies merged back in, reproducing the uninterrupted
  /// result bit for bit.
  const CampaignCheckpoint* resume = nullptr;

  InjectionBudget& budget() { return *this; }
  const InjectionBudget& budget() const { return *this; }
  obs::RunContext& context() { return *this; }
  const obs::RunContext& context() const { return *this; }
};

using WorkloadFactory = std::function<std::unique_ptr<core::Workload>()>;

/// Automatic fork-epoch rule, used when CampaignConfig::fork_epochs is
/// unset, and by every accelerated beam experiment. A forked trial skips the
/// fault-free prefix up to its epoch, which it would otherwise simulate with
/// the injection hooks attached (the slow per-lane path); the price is one
/// capture pass per campaign or beam experiment plus E snapshots held in
/// memory. The rule:
///   - 0 when the workload is not fork-safe;
///   - otherwise min(kAutoForkMaxEpochs, golden_lanes /
///     kAutoForkLanesPerEpoch, trials): no more epochs than trials can use,
///     no epoch shorter than kAutoForkLanesPerEpoch lane instructions (so
///     runs shorter than that get 0), and at most 8.
/// `trials` is the campaign's budgeted trial count, known before its
/// fault-free pass, so the site counting rides on the capture; a beam
/// experiment passes its runs that need simulation.
/// Measured with 4-worker campaigns (3-5 repeats, median) on a 4-vCPU
/// x86-64 host, Release build, epochs swept over {0,1,2,4,8,16,32}:
///   - LAVA-F SASSIFI at scale 0.5 (2.5M lane instructions, 130 trials):
///     1.10 s unforked, 0.40 s at 8 epochs, 0.40 s at 16, 0.37 s at 32;
///     HOTSPOT-F, GEMM-F (Volta) and the Kepler micros behaved alike, with
///     8 vs 16 epochs within run-to-run noise everywhere. Snapshot memory
///     grows linearly with E, so the cap is 8, not 16.
///   - MXM-F with n=16 (26k lane instructions; NVBitFI, 20 trials per
///     kind plus 20 RF): 50 ms unforked, 25 ms at 4 epochs (6.5k lanes
///     each), 29 ms at 8 (3.3k lanes each) — shorter epochs lose to restore
///     and setup costs, hence 6144 lanes.
///   - Few trials (LAVA-F SASSIFI, scale 0.5, 1-8 RF trials, 7 repeats,
///     median; unforked vs this rule): 1 worker 91/142/167 ms unforked vs
///     83/122/132 ms forked at 1/2/3 trials; 4 workers 79/114/132 ms vs
///     83/102/130 ms, measured with a separate hook-free capture run; the
///     site counting now rides on the capture pass, so forking adds no
///     fault-free run at all and no minimum trial count is needed.
/// Pure and deterministic; the result never changes campaign outcomes.
inline constexpr std::uint64_t kAutoForkMaxEpochs = 8;
inline constexpr std::uint64_t kAutoForkLanesPerEpoch = 6144;
unsigned auto_fork_epochs(bool fork_safe, std::uint64_t golden_lanes,
                          std::uint64_t trials);

/// Width of the InstructionAddress fault model's flip range for a prepared
/// workload: the smallest b (>= 1) with 2^b covering every program's
/// instruction indices. The campaign samples the flip bit uniformly from
/// [0, ia_pc_bits) and the observer applies exactly the sampled bit, so all
/// sampled bits are reachable; flips into [size, 2^b) model the realistic
/// jump-past-the-end PC corruption (immediate DUE).
unsigned ia_pc_bits(const core::Workload& w);

/// Run the fault-free counting pass once, for sharing across campaigns via
/// CampaignConfig::sites. Performs the same instrumentability checks as
/// run_campaign (and throws the same way when they fail).
SiteCounts count_sites(const Injector& injector, const WorkloadFactory& factory);

/// Run a full campaign (or one shard of it — see CampaignConfig::shard_*).
/// Throws std::invalid_argument when the injector cannot instrument the
/// workload on its device (the paper substitutes NVBitFI-on-Volta AVFs in
/// that case — a decision made by the Study layer), or when the shard /
/// checkpoint configuration is inconsistent.
CampaignResult run_campaign(const Injector& injector, const WorkloadFactory& factory,
                            const CampaignConfig& config);

}  // namespace gpurel::fault
