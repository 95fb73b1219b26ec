#include "fault/campaign.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "fault/microarch.hpp"
#include "fault/trial_engine.hpp"
#include "obs/metrics.hpp"
#include "sim/instr_info.hpp"

namespace gpurel::fault {

using isa::UnitKind;

void OutcomeCounts::add(core::Outcome o) {
  switch (o) {
    case core::Outcome::Masked: ++masked; break;
    case core::Outcome::Sdc: ++sdc; break;
    case core::Outcome::Due: ++due; break;
  }
}

void OutcomeCounts::merge(const OutcomeCounts& other) {
  masked += other.masked;
  sdc += other.sdc;
  due += other.due;
}

std::uint64_t DueCauseCounts::total() const {
  std::uint64_t t = 0;
  for (const std::uint64_t n : by_cause) t += n;
  return t;
}

void DueCauseCounts::add(core::DueCause c) {
  if (c != core::DueCause::None) ++by_cause[static_cast<std::size_t>(c)];
}

void DueCauseCounts::merge(const DueCauseCounts& other) {
  for (std::size_t c = 0; c < by_cause.size(); ++c)
    by_cause[c] += other.by_cause[c];
}

namespace {

constexpr std::size_t kKinds = static_cast<std::size_t>(UnitKind::kCount);

/// Per-class site counts consumed by the fault-free prefix up to one
/// snapshot epoch. `lane_mark` is the cumulative issue-domain
/// lane-instruction count at the epoch's end-of-cycle boundary — the same
/// boundary the executor's capture hook uses (sim/snapshot.hpp), so a trial
/// whose sampled target index is >= the epoch's count for its class fires
/// strictly after the fork. `cum_cycle` is the cumulative cycle position of
/// that same boundary (prior launches + the in-flight launch's cycle),
/// which is how micro-architectural trials — addressed by fire cycle, not
/// site index — are bucketed.
struct EpochSites {
  std::uint64_t lane_mark = 0;
  std::uint64_t cum_cycle = 0;
  SiteCounts at;
};

/// Fault-free pass: count the dynamic sites each mode can target. With
/// `marks` set, additionally records the running counts at each cumulative
/// lane-instruction mark. Marks live in the issue domain (exec-mask
/// popcounts, exactly stats_.lane_instructions) while site counts live in
/// the after-exec domain — the two only agree at cycle boundaries (MMA
/// delivers after_exec for all 32 lanes regardless of mask), so crossings
/// are detected on cycle change and flushed before the new cycle's events.
class CountingObserver final : public sim::SimObserver {
 public:
  explicit CountingObserver(const Injector& inj,
                            const std::vector<std::uint64_t>* marks = nullptr,
                            std::vector<EpochSites>* epochs = nullptr)
      : inj_(inj), marks_(marks), epochs_(epochs) {}

  unsigned wants() const override {
    return kWantsAfterExec | (marks_ != nullptr ? kWantsWarpIssue : 0u);
  }

  void on_warp_issue(const sim::WarpIssue& wi) override {
    if (wi.cycle != cycle_) {
      flush();
      cycle_ = wi.cycle;
    }
    lanes_ += static_cast<unsigned>(std::popcount(wi.exec_mask));
  }

  void on_launch_end(const sim::LaunchStats& st) override {
    flush();
    // Cumulative-cycle base for the next launch's epochs — the same
    // accumulation a snapshot's `prior` stats carry, so cum_cycle matches
    // the resumed position of a forked trial exactly.
    launch_base_ += st.cycles;
    cycle_ = std::numeric_limits<std::uint64_t>::max();
  }

  void after_exec(sim::ExecContext& ctx) override {
    ++counts_.total_lane;
    if (isa::writes_predicate(ctx.instr->op)) ++counts_.pred;
    if (ctx.instr->op == isa::Opcode::STG || ctx.instr->op == isa::Opcode::STS)
      ++counts_.stores;
    if (inj_.eligible_output(*ctx.instr))
      ++counts_
            .per_kind[static_cast<std::size_t>(isa::unit_kind(ctx.instr->op))];
  }

  const SiteCounts& counts() const { return counts_; }

 private:
  void flush() {
    if (marks_ == nullptr) return;
    while (next_mark_ < marks_->size() && (*marks_)[next_mark_] <= lanes_) {
      EpochSites e;
      e.lane_mark = lanes_;
      // The executor snapshots at this same boundary with its cycle counter
      // still on the last issued cycle, so `prior.cycles + exec cycle` of
      // the snapshot equals exactly this value.
      e.cum_cycle = launch_base_ + (cycle_ == std::numeric_limits<
                                                  std::uint64_t>::max()
                                        ? 0
                                        : cycle_);
      e.at = counts_;
      epochs_->push_back(e);
      ++next_mark_;
    }
  }

  const Injector& inj_;
  SiteCounts counts_;
  const std::vector<std::uint64_t>* marks_;
  std::vector<EpochSites>* epochs_;
  std::uint64_t lanes_ = 0;   // issue-domain cumulative lane instructions
  std::uint64_t cycle_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t launch_base_ = 0;  // cycles of completed launches
  std::size_t next_mark_ = 0;
};

/// One-shot single-fault observer.
class InjectionObserver final : public sim::SimObserver {
 public:
  SiteClass mode = SiteClass::InstructionOutput;
  const Injector* inj = nullptr;
  UnitKind target_kind = UnitKind::OTHER;
  std::uint64_t target_index = 0;   // among this mode's eligible sites
  unsigned bit = 0;                 // flip position within the destination
  unsigned rf_reg = 0;              // RegisterFile mode: which register
  unsigned ia_bit = 0;              // InstructionAddress mode: PC bit to flip
  /// Propagation flight recorder (teed behind this observer); notified the
  /// moment the fault fires so it can seed its taint state. May be null.
  obs::PropagationObserver* prop = nullptr;

  bool fired = false;

  // Only the store-operand modes corrupt operands pre-execution; every other
  // model's before_exec was a no-op, so claiming just after_exec lets the
  // executor skip the per-lane before hook entirely for those trials. Once
  // the one-shot fault has fired (and any store-operand latch is restored),
  // every remaining hook call would be a no-op, so all claims are dropped and
  // the executor re-polls the mask at the next cycle boundary — the rest of
  // the trial simulates on the bare whole-warp paths.
  unsigned wants() const override {
    if (fired && !restore_pending_) return 0u;
    const bool store_mode =
        mode == SiteClass::StoreValue || mode == SiteClass::StoreAddress;
    return store_mode ? (kWantsBeforeExec | kWantsAfterExec) : kWantsAfterExec;
  }

  // Store-operand modes corrupt the source register just before the store
  // executes and restore it afterwards (the strike hits the store unit's
  // operand latch, not the register file).
  void before_exec(sim::ExecContext& ctx) override {
    if (fired) return;
    if (mode != SiteClass::StoreValue && mode != SiteClass::StoreAddress)
      return;
    const bool is_store =
        ctx.instr->op == isa::Opcode::STG || ctx.instr->op == isa::Opcode::STS;
    if (!is_store) return;
    if (store_count_++ != target_index) return;
    const std::uint8_t reg =
        mode == SiteClass::StoreAddress ? ctx.instr->src[0] : ctx.instr->src[1];
    fired = true;
    if (prop != nullptr)
      prop->note_injection(ctx,
                           reg == isa::kRZ
                               ? obs::PropagationObserver::Seed::None
                               : obs::PropagationObserver::Seed::StoreBytes,
                           bit % 32, reg);
    if (reg == isa::kRZ) return;
    saved_reg_ = reg;
    saved_val_ = ctx.regs->get(reg);
    saved_regs_ = ctx.regs;
    ctx.regs->set(reg, flip_bit32(saved_val_, bit % 32));
    restore_pending_ = true;
  }

  void after_exec(sim::ExecContext& ctx) override {
    if (restore_pending_ && saved_regs_ == ctx.regs) {
      saved_regs_->set(saved_reg_, saved_val_);
      restore_pending_ = false;
    }
    if (fired) return;
    switch (mode) {
      case SiteClass::InstructionOutput: {
        if (!inj->eligible_output(*ctx.instr)) return;
        if (isa::unit_kind(ctx.instr->op) != target_kind) return;
        if (count_++ != target_index) return;
        const unsigned width = std::max(sim::dst_reg_width(*ctx.instr), 1u);
        const unsigned bsel = bit % (width * 32);  // uniform over the dest bits
        const unsigned reg = ctx.instr->dst + bsel / 32;
        ctx.regs->set(static_cast<std::uint8_t>(reg),
                      flip_bit32(ctx.regs->get(static_cast<std::uint8_t>(reg)),
                                 bsel % 32));
        fired = true;
        if (prop != nullptr)
          prop->note_injection(ctx,
                               reg >= isa::kRZ
                                   ? obs::PropagationObserver::Seed::None
                                   : obs::PropagationObserver::Seed::GprWrite,
                               bsel, reg);
        break;
      }
      case SiteClass::Predicate: {
        if (!isa::writes_predicate(ctx.instr->op)) return;
        if (count_++ != target_index) return;
        const std::uint8_t p = ctx.instr->dst & 0x07;
        ctx.regs->set_pred(p, !ctx.regs->get_pred(p));
        fired = true;
        if (prop != nullptr)
          prop->note_injection(ctx,
                               p >= isa::kNumPredicates
                                   ? obs::PropagationObserver::Seed::None
                                   : obs::PropagationObserver::Seed::PredWrite,
                               p, p);
        break;
      }
      case SiteClass::InstructionAddress: {
        if (count_++ != target_index) return;
        // ia_bit is sampled in [0, ia_pc_bits(workload)), so the flip is
        // applied verbatim — every sampled bit is reachable.
        *ctx.next_pc ^= (1u << (ia_bit & 31u));
        fired = true;
        if (prop != nullptr)
          prop->note_injection(
              ctx, obs::PropagationObserver::Seed::ControlFlow, ia_bit, 0);
        break;
      }
      case SiteClass::RegisterFile: {
        if (count_++ != target_index) return;
        ctx.regs->set(static_cast<std::uint8_t>(rf_reg),
                      flip_bit32(ctx.regs->get(static_cast<std::uint8_t>(rf_reg)),
                                 bit % 32));
        fired = true;
        if (prop != nullptr)
          prop->note_injection(ctx,
                               rf_reg >= isa::kRZ
                                   ? obs::PropagationObserver::Seed::None
                                   : obs::PropagationObserver::Seed::GprWrite,
                               bit % 32, rf_reg);
        break;
      }
      case SiteClass::StoreValue:
      case SiteClass::StoreAddress:
        break;  // handled in before_exec
      default:
        break;  // micro-architectural classes strike via MicroArchObserver
    }
  }

  /// Forked trials resume after a prefix that already consumed `n` of this
  /// mode's sites; preloading the counters makes the target-index comparison
  /// see the same running count an unforked trial would at that point.
  void preset_counts(std::uint64_t n) {
    count_ = n;
    store_count_ = n;
  }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t store_count_ = 0;
  bool restore_pending_ = false;
  std::uint8_t saved_reg_ = 0;
  std::uint32_t saved_val_ = 0;
  sim::ThreadRegs* saved_regs_ = nullptr;
};

struct TrialDesc {
  SiteClass cls;
  UnitKind kind;       // InstructionOutput only
  std::uint64_t seed;
};

/// Dynamic sites of an architectural class within a set of counting-run
/// counts — the single class→stratum mapping shared by trial planning,
/// fault sampling, and fork-epoch bucketing (which used to carry three
/// copies of the same per-mode switch). Micro-architectural classes have
/// static site spaces (SiteSpace), not dynamic counts, and return 0 here.
std::uint64_t class_sites(const SiteCounts& sc, SiteClass cls, UnitKind kind) {
  switch (cls) {
    case SiteClass::InstructionOutput:
      return sc.per_kind[static_cast<std::size_t>(kind)];
    case SiteClass::Predicate: return sc.pred;
    case SiteClass::RegisterFile:
    case SiteClass::InstructionAddress: return sc.total_lane;
    case SiteClass::StoreValue:
    case SiteClass::StoreAddress: return sc.stores;
    default: return 0;
  }
}

/// Shared preamble of run_campaign and count_sites: the injector must be
/// able to instrument this workload on its device and compiler profile.
void check_instrumentable(const Injector& injector, const core::Workload& w) {
  if (!injector.can_instrument(w, w.config().gpu))
    throw std::invalid_argument(injector.name() + " cannot instrument " +
                                w.name() + " on " + w.config().gpu.name);
  if (w.config().profile != injector.profile())
    throw std::invalid_argument(
        "run_campaign: workload was built with the wrong compiler profile for " +
        injector.name());
}

/// Fault-free counting run over an already prepared workload.
SiteCounts count_prepared(const Injector& injector, core::Workload& w,
                          sim::Device& dev) {
  CountingObserver counter(injector);
  const auto r = w.run_trial(dev, &counter);
  if (r.outcome != core::Outcome::Masked)
    throw std::logic_error("counting pass produced a non-masked outcome for " +
                           w.name());
  return counter.counts();
}

/// Upper bound on the trials this process simulates: every requested trial,
/// split over the shards, less a resumed prefix.
std::uint64_t budgeted_trials(const CampaignConfig& c) {
  std::uint64_t requested = std::uint64_t{kKinds} * c.injections_per_kind;
  for (const SiteClass cls : kStratumClasses) requested += c.budget().of(cls);
  const unsigned shards = std::max(1u, c.shard_count);
  const std::uint64_t owned = (requested + shards - 1) / shards;
  const std::uint64_t done = c.resume != nullptr ? c.resume->trials_done : 0;
  return owned > done ? owned - done : 0;
}

/// Calls f(counts, sites) for every exercised stratum of the overall AVF:
/// each unit kind's IOV stratum weighted by its dynamic site count, then the
/// predicate and micro-architectural strata weighted by their site counts
/// (the latter exactly zero mass on architectural campaigns, whose numbers
/// are therefore unchanged to the bit). The RF, IA and store strata are
/// reported on their own.
template <class F>
void for_each_weighted_stratum(const CampaignResult& r, F f) {
  for (const KindStats& k : r.per_kind)
    if (k.counts.total() > 0) f(k.counts, k.dynamic_sites);
  for (const SiteClass c : kStratumClasses)
    if ((c == SiteClass::Predicate || is_microarch(c)) &&
        r.of(c).total() > 0 && r.sites_of(c) > 0)
      f(r.of(c), r.sites_of(c));
}

double overall_avf(const CampaignResult& r,
                   double (OutcomeCounts::*avf)() const) {
  double num = 0, den = 0;
  for_each_weighted_stratum(r, [&](const OutcomeCounts& c, std::uint64_t n) {
    num += static_cast<double>(n) * (c.*avf)();
    den += static_cast<double>(n);
  });
  return den > 0 ? num / den : 0.0;
}

}  // namespace

double CampaignResult::overall_avf_sdc() const {
  return overall_avf(*this, &OutcomeCounts::avf_sdc);
}

double CampaignResult::overall_avf_due() const {
  return overall_avf(*this, &OutcomeCounts::avf_due);
}

double CampaignResult::overall_masked() const {
  double den = 0;
  for_each_weighted_stratum(*this, [&](const OutcomeCounts&, std::uint64_t n) {
    den += static_cast<double>(n);
  });
  if (den <= 0) return 0.0;  // nothing injected: no masked mass either
  return 1.0 - overall_avf_sdc() - overall_avf_due();
}

unsigned auto_fork_epochs(bool fork_safe, std::uint64_t golden_lanes,
                          std::uint64_t trials) {
  if (!fork_safe) return 0;
  return static_cast<unsigned>(std::min<std::uint64_t>(
      {kAutoForkMaxEpochs, golden_lanes / kAutoForkLanesPerEpoch, trials}));
}

unsigned ia_pc_bits(const core::Workload& w) {
  std::uint32_t max_size = 2;  // even a 1-instruction program has PC bit 0
  for (const isa::Program* p : w.programs())
    max_size = std::max(max_size, p->size());
  unsigned bits = 1;
  while ((std::uint64_t{1} << bits) < max_size) ++bits;
  return bits;
}

std::uint64_t CampaignResult::total_injections() const {
  std::uint64_t t = 0;
  for (const KindStats& k : per_kind) t += k.counts.total();
  for (const OutcomeCounts& c : by_class) t += c.total();
  return t;
}

void CampaignResult::merge(const CampaignResult& other) {
  auto mismatch = [](const char* what) {
    throw std::invalid_argument(std::string("CampaignResult::merge: ") + what +
                                " mismatch — results are not shards of the "
                                "same campaign");
  };
  if (injector != other.injector) mismatch("injector");
  if (workload != other.workload) mismatch("workload");
  if (sites != other.sites) mismatch("site count");
  for (std::size_t k = 0; k < per_kind.size(); ++k)
    if (per_kind[k].dynamic_sites != other.per_kind[k].dynamic_sites)
      mismatch("per-kind dynamic sites");
  for (std::size_t k = 0; k < per_kind.size(); ++k)
    per_kind[k].counts.merge(other.per_kind[k].counts);
  for (std::size_t c = 0; c < by_class.size(); ++c)
    by_class[c].merge(other.by_class[c]);
  due_causes.merge(other.due_causes);
  if (other.propagation.has_value()) {
    if (propagation.has_value())
      propagation->merge(*other.propagation);
    else
      propagation = other.propagation;
  }
}

SiteCounts count_sites(const Injector& injector, const WorkloadFactory& factory) {
  TrialWorker st = prepare_worker(factory, "count_sites");
  check_instrumentable(injector, *st.w);
  return count_prepared(injector, *st.w, *st.dev);
}

CampaignResult run_campaign(const Injector& injector, const WorkloadFactory& factory,
                            const CampaignConfig& config) {
  // Reference instance (worker 0's): prepare, check instrumentability.
  TrialEngine engine("campaign", "trials", factory, config.workers,
                     config.context());
  core::Workload* const ref = engine.reference().w.get();
  sim::Device* const ref_dev = engine.reference().dev.get();
  check_instrumentable(injector, *ref);

  // Plan-time validation: RegisterFile trials flip one bit of a register
  // sampled from [0, max_regs). A workload whose kernels use no registers
  // has no RF state to strike; silently clamping the sample range to 1 (the
  // old behaviour) injected into a register the program does not own —
  // always masked, silently diluting the reported RF AVF.
  if (config.rf_injections > 0 && injector.reaches(SiteClass::RegisterFile) &&
      ref->max_regs_per_thread() == 0)
    throw std::invalid_argument(
        "run_campaign: RegisterFile injections requested but " + ref->name() +
        " uses no architectural registers");

  // Checkpoint-fork batching: place up to fork_epochs snapshot marks evenly
  // over the trial's cumulative lane-instruction count (golden run; trials
  // are bit-identical until their injection fires, so the prefix is shared).
  // Unless the caller fixed it, the epoch count is chosen here, before the
  // fault-free pass, from the golden run length and the budget's upper bound
  // on the trials this process simulates (kinds without sites and plan-time
  // masked strata only lower the real count).
  const unsigned fork_epochs = config.fork_epochs.value_or(
      auto_fork_epochs(ref->fork_safe(), ref->golden_stats().lane_instructions,
                       budgeted_trials(config)));
  std::vector<std::uint64_t> marks;
  if (fork_epochs > 0 && ref->fork_safe())
    marks = TrialEngine::even_marks(ref->golden_stats().lane_instructions,
                                    fork_epochs);
  bool forking = !marks.empty();

  // Site counts and fork points come from one fault-free pass. When forking,
  // the counting observer rides on the engine's snapshot capture and also
  // records the running per-mode counts at each mark; otherwise a plain
  // counting run measures the sites. Caller-provided counts (bit-identical;
  // see CampaignConfig::sites) replace the measured ones, which leaves a
  // plain campaign no fault-free pass at all.
  std::vector<EpochSites> epochs;
  SiteCounts sites;
  if (forking) {
    CountingObserver counter(injector, &marks, &epochs);
    engine.capture(marks, &counter);
    sites = counter.counts();
    if (epochs.size() != marks.size())
      forking = false;  // defensive: a missed mark disables forking, not trials
  } else if (config.sites == nullptr) {
    sites = count_prepared(injector, *ref, *ref_dev);
  }
  if (config.sites != nullptr) sites = *config.sites;

  // The injector's reach descriptor: static site spaces of the
  // micro-architectural classes it can strike (empty for the SASS-level
  // injectors, whose reach is purely architectural/dynamic).
  const SiteSpace space = injector.enumerate_sites(*ref, ref->config().gpu);
  const MicroArchLayout layout = microarch_layout(*ref, ref->config().gpu);
  const std::uint64_t golden_cycles = ref->golden_stats().cycles;

  CampaignResult result;
  result.injector = injector.name();
  result.workload = ref->name();
  for (std::size_t k = 0; k < kKinds; ++k) {
    result.per_kind[k].dynamic_sites = sites.per_kind[k];
    result.sites_of(SiteClass::InstructionOutput) += sites.per_kind[k];
  }
  for (const SiteClass cls : kStratumClasses)
    result.sites_of(cls) = is_microarch(cls)
                               ? space.of(cls).sites()
                               : class_sites(sites, cls, UnitKind::OTHER);

  // Build the trial list (stratified by kind, plus every other reached
  // class the budget funds, in SiteClass order: the micro-architectural
  // strata ride strictly after the architectural ones, so the architectural
  // salt chain — and with it every architectural trial seed — does not
  // depend on them).
  std::vector<TrialDesc> trials;
  std::uint64_t salt = config.seed;
  for (std::size_t k = 0; k < kKinds; ++k) {
    if (sites.per_kind[k] == 0) continue;
    for (unsigned i = 0; i < config.injections_per_kind; ++i)
      trials.push_back({SiteClass::InstructionOutput, static_cast<UnitKind>(k),
                        splitmix64(salt)});
  }
  // A class that was requested and is reached but has zero sites in this
  // workload gets its trials resolved as Masked at plan time (a strike on a
  // unit the program never exercises corrupts nothing), with a telemetry
  // warning. The old path silently dropped the trials — and had it run
  // them, sampling a target from an empty range would have reached
  // Rng::uniform_u64(0), which is undefined.
  std::array<bool, kSiteClasses> zero_site_class{};
  for (const SiteClass cls : kStratumClasses) {
    const unsigned n = config.budget().of(cls);
    if (!injector.reaches(cls) || n == 0) continue;
    if (result.sites_of(cls) == 0)
      zero_site_class[static_cast<std::size_t>(cls)] = true;
    for (unsigned i = 0; i < n; ++i)
      trials.push_back({cls, UnitKind::OTHER, splitmix64(salt)});
  }

  // Shard selection: every shard builds the identical full trial list above
  // and then owns trials t with t % shard_count == shard_index. Outcome
  // tallies cover only owned trials (site counts are per-campaign constants
  // reported in full), so merging all shards reproduces the unsharded run.
  const std::vector<std::size_t> owned =
      engine.shard(trials.size(), config.shard_index, config.shard_count);

  const bool checkpointing =
      config.checkpoint_every > 0 && static_cast<bool>(config.on_checkpoint);
  if (config.resume != nullptr && config.resume->trials_done > owned.size())
    throw std::invalid_argument(
        "run_campaign: checkpoint covers more trials than this shard owns");
  const bool propagation = config.propagation;
  if (propagation && config.resume != nullptr)
    throw std::invalid_argument(
        "run_campaign: propagation provenance cannot resume from a checkpoint "
        "(the skipped prefix has no per-trial records)");
  // Positions [0, skip) of the owned order are already accounted for by the
  // resume checkpoint; this process executes positions [skip, owned.size()),
  // remapped below to start at 0 so the engine sees a dense range.
  const std::size_t skip = config.resume != nullptr
                               ? static_cast<std::size_t>(config.resume->trials_done)
                               : 0;
  const std::size_t todo = owned.size() - skip;

  // Per-trial outcomes land in a vector indexed by trial id and are tallied
  // serially afterwards, so the result is bit-identical for any worker count.
  const unsigned pc_bits = ia_pc_bits(*ref);

  const obs::RunContext& ctx = config.context();
  auto& metrics = obs::Registry::global();
  obs::Counter& m_trials = metrics.counter("gpurel_campaign_trials_total");
  obs::Histogram& m_latency =
      metrics.histogram("gpurel_campaign_trial_latency_ms");
  // The whole run (trace category "run"; "campaign" is the chunk spans').
  obs::Step run =
      ctx.step("campaign_end", "campaign " + result.workload, "run");
  ctx.event("campaign_start",
            {{"injector", result.injector},
             {"workload", result.workload},
             {"trials", todo},
             {"workers", engine.workers().size()},
             {"ia_pc_bits", pc_bits},
             {"shard_index", config.shard_index},
             {"shard_count", config.shard_count},
             {"resumed_trials", std::uint64_t{skip}},
             {"fork_epochs", forking ? marks.size() : std::size_t{0}}});
  for (std::size_t m = 0; m < zero_site_class.size(); ++m)
    if (zero_site_class[m])
      ctx.event("campaign_zero_site_mode",
                {{"injector", result.injector},
                 {"workload", result.workload},
                 {"model", std::string(site_class_names(
                               static_cast<SiteClass>(m)).model)},
                 {"resolution", "masked"}});

  // Per-trial records stay indexed by the *global* trial id (sparse under
  // sharding) so trial_cycles_out keeps its documented indexing.
  std::vector<core::Outcome> outcomes(trials.size(), core::Outcome::Masked);
  std::vector<core::DueCause> causes(trials.size(), core::DueCause::None);
  std::vector<std::uint64_t> cycles;
  if (config.trial_cycles_out != nullptr) cycles.assign(trials.size(), 0);
  std::vector<obs::PropagationRecord> records;
  if (propagation) records.resize(trials.size());

  // Tally outcomes of owned positions [p_begin, p_end) into `res`. Shared by
  // the final result, checkpoint snapshots, and the end-of-run telemetry so
  // all three agree by construction.
  auto tally_positions = [&](CampaignResult& res, std::size_t p_begin,
                             std::size_t p_end) {
    for (std::size_t p = p_begin; p < p_end; ++p) {
      const std::size_t t = owned[skip + p];
      const TrialDesc& d = trials[t];
      if (d.cls == SiteClass::InstructionOutput)
        res.per_kind[static_cast<std::size_t>(d.kind)].counts.add(outcomes[t]);
      else
        res.of(d.cls).add(outcomes[t]);
      res.due_causes.add(causes[t]);
    }
  };

  // Checkpoint bookkeeping: chunks complete out of order, so completed
  // position ranges are coalesced into a contiguous frontier and a
  // checkpoint covers exactly the frontier prefix. `result` still holds only
  // the per-campaign header here (tallies happen after the run), so it
  // doubles as the blank checkpoint base.
  std::mutex ck_mu;
  std::map<std::size_t, std::size_t> ck_ranges;  // completed [begin, end)
  std::size_t ck_frontier = 0;
  std::uint64_t ck_emitted_at = skip;
  auto note_checkpoint_progress = [&](std::size_t begin, std::size_t end) {
    if (!checkpointing) return;
    const std::lock_guard<std::mutex> lock(ck_mu);
    ck_ranges[begin] = end;
    for (auto it = ck_ranges.find(ck_frontier); it != ck_ranges.end();
         it = ck_ranges.find(ck_frontier)) {
      ck_frontier = it->second;
      ck_ranges.erase(it);
    }
    const std::uint64_t done_abs = skip + ck_frontier;
    if (done_abs < ck_emitted_at + config.checkpoint_every) return;
    if (done_abs >= owned.size()) return;  // the final result supersedes it
    CampaignCheckpoint ck;
    ck.trials_done = done_abs;
    ck.partial = config.resume != nullptr ? config.resume->partial : result;
    tally_positions(ck.partial, 0, ck_frontier);
    ck_emitted_at = done_abs;
    config.on_checkpoint(ck);
  };

  // Per-trial fault sampling, shared verbatim by the execution path and the
  // fork planner below so the RNG draw sequence stays byte-for-byte
  // identical whether or not a trial is forked.
  struct TrialSample {
    unsigned bit = 0;
    unsigned ia_bit = 0;
    unsigned rf_reg = 0;
    std::uint64_t target_index = 0;
    std::uint64_t fire_cycle = 0;  // micro-architectural trials only
  };
  auto sample_trial = [&](const TrialDesc& desc,
                          unsigned max_regs) -> TrialSample {
    Rng rng(desc.seed);
    TrialSample s;
    if (is_microarch(desc.cls)) {
      // Micro-architectural trials address a static site plus a fire cycle
      // drawn over the golden cycle count. Their seeds are fresh (the
      // strata append after every architectural one), so this draw order is
      // free — the architectural sequence below stays byte-for-byte fixed.
      s.target_index = rng.uniform_u64(space.of(desc.cls).sites());
      s.fire_cycle =
          rng.uniform_u64(std::max<std::uint64_t>(1, golden_cycles));
      return s;
    }
    s.bit = rng.next_u32();  // reduced modulo the destination width at fire time
    s.ia_bit = static_cast<unsigned>(rng.uniform_u64(pc_bits));
    // max(1, regs): every trial draws rf_reg to keep the draw order fixed
    // across modes; RF-mode trials on a zero-register workload were already
    // rejected at plan time, so the clamp only ever pads non-RF draws.
    s.rf_reg = static_cast<unsigned>(rng.uniform_u64(std::max(1u, max_regs)));
    s.target_index = rng.uniform_u64(class_sites(sites, desc.cls, desc.kind));
    return s;
  };

  // Fork planning: bucket each owned trial by the deepest epoch whose prefix
  // consumes only sites strictly before the trial's target, so the injection
  // fires inside the resumed suffix. Micro-architectural trials are bucketed
  // by simulated-time position instead: an epoch is valid when its boundary
  // is at or before the fire cycle (advance windows are [from, to), so a
  // fire exactly on the boundary still lands in the resumed suffix). -1 =
  // run the trial from scratch.
  std::vector<int> trial_epoch;
  if (forking) {
    trial_epoch.assign(trials.size(), -1);
    for (const std::size_t t : owned) {
      const TrialDesc& d = trials[t];
      if (zero_site_class[static_cast<std::size_t>(d.cls)]) continue;
      const TrialSample s = sample_trial(d, engine.reference().max_regs);
      int e = -1;
      if (is_microarch(d.cls)) {
        while (e + 1 < static_cast<int>(epochs.size()) &&
               epochs[static_cast<std::size_t>(e + 1)].cum_cycle <=
                   s.fire_cycle)
          ++e;
      } else {
        while (e + 1 < static_cast<int>(epochs.size()) &&
               class_sites(epochs[static_cast<std::size_t>(e + 1)].at, d.cls,
                           d.kind) <= s.target_index)
          ++e;
      }
      trial_epoch[t] = e;
    }
  }

  auto run_one = [&](TrialWorker& st, std::size_t t) {
    const TrialDesc& desc = trials[t];
    if (zero_site_class[static_cast<std::size_t>(desc.cls)]) {
      // Resolved at plan time: no reachable site, so the fault is masked by
      // definition — no RNG draws, no simulation.
      outcomes[t] = core::Outcome::Masked;
      if (!cycles.empty()) cycles[t] = 0;
      if (propagation) {
        obs::PropagationRecord& rec = records[t];
        rec.trial = t;
        rec.model = std::string(site_class_names(desc.cls).model);
        rec.fired = false;
        rec.outcome = "Masked";
      }
      m_trials.add();
      return;
    }
    const TrialSample sample = sample_trial(desc, st.max_regs);
    const int epoch = forking ? trial_epoch[t] : -1;
    const telemetry::Timer trial_wall;
    core::TrialResult r;

    // Stamp the terminal-event fields the workload owns (outcome, DUE
    // cause, SDC corruption geometry) onto a provenance record.
    auto finish_record = [&](obs::PropagationRecord rec) {
      rec.outcome = std::string(core::outcome_name(r.outcome));
      if (r.outcome == core::Outcome::Due) {
        rec.due = std::string(sim::due_kind_name(r.due));
        rec.due_cause = std::string(core::due_cause_name(r.cause));
      } else if (r.outcome == core::Outcome::Sdc) {
        // Outputs are still on the device here (next trial resets it), so
        // the corruption footprint can be diffed against the golden copy.
        const core::Workload::OutputGeometry g = st.w->output_geometry();
        std::vector<std::uint64_t> bad = st.w->corrupted_elements(*st.dev);
        rec.output_rows = g.rows;
        rec.output_cols = g.cols;
        rec.corrupted_elems = bad.size();
        rec.geometry =
            std::string(obs::sdc_geometry_name(obs::classify_sdc_geometry(
                bad, g.rows, g.cols)));
      }
      records[t] = std::move(rec);
    };

    if (is_microarch(desc.cls)) {
      // Micro-architectural strike: machine state, not an instruction site —
      // no taint tracker (there is no instruction provenance to seed); the
      // record is assembled from the observer's own account instead.
      MicroArchObserver march(layout, desc.cls, sample.target_index,
                              sample.fire_cycle);
      if (epoch >= 0) {
        const auto e = static_cast<std::size_t>(epoch);
        march.preset_cycle_base(engine.snapshots()[e].prior.cycles);
        r = engine.run_forked(st, e, &march);
      } else {
        r = st.w->run_trial(*st.dev, &march);
      }
      m_latency.observe(trial_wall.elapsed_ms());
      m_trials.add();
      outcomes[t] = r.outcome;
      causes[t] = r.cause;
      if (!cycles.empty()) cycles[t] = r.stats.cycles;
      if (propagation) {
        obs::PropagationRecord rec;
        rec.trial = t;
        rec.model = std::string(site_class_names(desc.cls).model);
        rec.fired = march.fired();
        rec.effect = march.effect();
        rec.bit = march.site().bit;
        rec.cycle = march.fired() ? sample.fire_cycle : 0;
        finish_record(std::move(rec));
      }
      return;
    }

    InjectionObserver obs;
    obs.mode = desc.cls;
    obs.inj = &injector;
    obs.bit = sample.bit;
    obs.ia_bit = sample.ia_bit;
    obs.rf_reg = sample.rf_reg;
    obs.target_kind = desc.kind;  // meaningful for IOV; ignored otherwise
    obs.target_index = sample.target_index;
    // Provenance rides behind the injection observer in a tee: injection
    // first (so the tracker sees post-injection register state), tracker
    // second. Both claim only hooks the injection path already claims, so
    // the executor's dispatch — and thus every outcome — is unchanged.
    obs::PropagationObserver prop;
    sim::TeeObserver tee(&obs, &prop);
    sim::SimObserver* trial_obs = &obs;
    if (propagation) {
      prop.begin_trial(t, std::string(site_class_names(desc.cls).model));
      obs.prop = &prop;
      trial_obs = &tee;
    }
    if (epoch >= 0) {
      const EpochSites& es = epochs[static_cast<std::size_t>(epoch)];
      obs.preset_counts(class_sites(es.at, desc.cls, desc.kind));
      // The skipped prefix is fault-free, so the tracker only needs its
      // lane-instruction clock advanced to keep records fork-invariant.
      if (propagation) prop.preset_lane_count(es.at.total_lane);
      r = engine.run_forked(st, static_cast<std::size_t>(epoch), trial_obs);
    } else {
      r = st.w->run_trial(*st.dev, trial_obs);
    }
    m_latency.observe(trial_wall.elapsed_ms());
    m_trials.add();
    outcomes[t] = r.outcome;
    causes[t] = r.cause;
    if (!cycles.empty()) cycles[t] = r.stats.cycles;
    if (propagation) finish_record(prop.finish());
  };

  // Chunks are *positions* in the owned order (dense [0, todo)); run_one maps
  // them back to global trial ids. Under forking each chunk runs grouped by
  // fork epoch (stable sort, so same-epoch trials keep their position order)
  // so consecutive trials resume from a hot snapshot — the delta fast path
  // only fires for back-to-back trials on the same snapshot. Per-trial
  // seeding makes every outcome independent of execution order, and
  // completion is still reported for the whole chunk, so chunk events and
  // the checkpoint frontier are unchanged.
  engine.run(
      todo,
      [&](TrialWorker& st, std::size_t begin, std::size_t end) {
        std::vector<std::size_t> ps;
        ps.reserve(end - begin);
        for (std::size_t p = begin; p < end; ++p) ps.push_back(owned[skip + p]);
        if (forking)
          std::stable_sort(ps.begin(), ps.end(),
                           [&](std::size_t a, std::size_t b) {
                             return trial_epoch[a] < trial_epoch[b];
                           });
        for (const std::size_t t : ps) run_one(st, t);
      },
      note_checkpoint_progress);

  // Snapshot-pool footprint: the bytes actually retained for fork batching —
  // the one shared snapshot set, memory images and executor state alike,
  // plus every worker's delta-tracking dirty scratch. set_max keeps the
  // high-water mark across campaigns in one process.
  if (forking) {
    std::uint64_t pool_bytes = 0;
    for (const sim::Snapshot& s : engine.snapshots()) pool_bytes += s.bytes();
    for (const TrialWorker& st : engine.workers())
      if (st.dev) pool_bytes += st.dev->memory().dirty_scratch_bytes();
    metrics.gauge("gpurel_campaign_snapshot_pool_bytes")
        .set_max(static_cast<double>(pool_bytes));
  }

  // Serial tally in trial order; a resumed prefix contributes through its
  // checkpoint tallies (integer sums, so the combined result is bit-identical
  // to the uninterrupted run).
  tally_positions(result, 0, todo);
  if (config.resume != nullptr) result.merge(config.resume->partial);
  if (config.trial_outcomes_out != nullptr)
    *config.trial_outcomes_out = outcomes;
  if (config.trial_cycles_out != nullptr)
    *config.trial_cycles_out = std::move(cycles);

  if (propagation) {
    // Aggregate and emit serially in owned-trial order: records were filled
    // in place by whichever worker ran the trial, so the JSONL stream (and
    // the report's integer sums) are identical for any worker count.
    obs::PropagationReport rep;
    for (std::size_t p = 0; p < todo; ++p) rep.add(records[owned[skip + p]]);
    result.propagation = std::move(rep);
    for (std::size_t p = 0; p < todo; ++p)
      ctx.event("propagation_record", records[owned[skip + p]].to_json());
    if (config.propagation_records_out != nullptr)
      *config.propagation_records_out = std::move(records);
  }

  // Registry snapshot of this campaign's outcomes and injection-site
  // coverage (counters accumulate across campaigns in one process).
  auto count_outcomes = [&](std::string_view model, const std::string& kind,
                            const OutcomeCounts& c) {
    if (c.total() == 0) return;
    auto bump = [&](const char* outcome, std::uint64_t n) {
      if (n > 0)
        metrics
            .counter("gpurel_campaign_outcomes_total",
                     {{"model", std::string(model)},
                      {"kind", kind},
                      {"outcome", outcome}})
            .add(n);
    };
    bump("masked", c.masked);
    bump("sdc", c.sdc);
    bump("due", c.due);
  };
  for (std::size_t k = 0; k < kKinds; ++k) {
    const KindStats& ks = result.per_kind[k];
    const auto kind_name =
        std::string(isa::unit_kind_name(static_cast<UnitKind>(k)));
    count_outcomes(site_class_names(SiteClass::InstructionOutput).budget,
                   kind_name, ks.counts);
    if (ks.dynamic_sites > 0) {
      metrics
          .gauge("gpurel_campaign_dynamic_sites", {{"kind", kind_name}})
          .set(static_cast<double>(ks.dynamic_sites));
      metrics
          .gauge("gpurel_campaign_site_coverage", {{"kind", kind_name}})
          .set(static_cast<double>(ks.counts.total()) /
               static_cast<double>(ks.dynamic_sites));
    }
  }
  for (const SiteClass cls : kStratumClasses)
    count_outcomes(site_class_names(cls).budget, "all", result.of(cls));

  OutcomeCounts all;
  for (std::size_t p = 0; p < todo; ++p) all.add(outcomes[owned[skip + p]]);
  const double ms = run.elapsed_ms();
  run.end({{"injector", result.injector},
           {"workload", result.workload},
           {"trials", todo},
           {"masked", all.masked},
           {"sdc", all.sdc},
           {"due", all.due},
           {"trials_per_sec",
            ms > 0 ? 1000.0 * static_cast<double>(todo) / ms : 0.0}});
  return result;
}

}  // namespace gpurel::fault
