#include "beam/experiment.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "fault/trial_engine.hpp"
#include "obs/metrics.hpp"
#include "sim/instr_info.hpp"
#include "sim/timing.hpp"

namespace gpurel::beam {

using fault::OutcomeCounts;
using isa::Opcode;
using isa::UnitKind;

void BeamResult::refresh_fits() {
  const double n = static_cast<double>(std::max<std::uint64_t>(1, runs));
  // Display normalization keeps typical values O(1..100).
  constexpr double kDisplay = 1.0e3;
  per_event_fit = fit_scale * kDisplay / n;
  auto to_fit = [&](std::uint64_t count, ConfidenceInterval& ci_out) {
    const ConfidenceInterval ci = poisson_ci95(count);
    const double fit = fit_scale * (static_cast<double>(count) / n) * kDisplay;
    ci_out.point = fit;
    ci_out.lower = fit_scale * (ci.lower / n) * kDisplay;
    ci_out.upper = fit_scale * (ci.upper / n) * kDisplay;
    return fit;
  };
  fit_sdc = to_fit(outcomes.sdc, fit_sdc_ci);
  fit_due = to_fit(outcomes.due, fit_due_ci);
}

void BeamResult::merge(const BeamResult& other) {
  auto mismatch = [](const char* what) {
    throw std::invalid_argument(std::string("BeamResult::merge: ") + what +
                                " mismatch — results are not shards of the "
                                "same experiment");
  };
  if (workload != other.workload) mismatch("workload");
  if (device != other.device) mismatch("device");
  if (ecc != other.ecc) mismatch("ecc");
  if (mode != other.mode) mismatch("mode");
  if (fit_scale != other.fit_scale) mismatch("fit_scale");
  if (device_sigma_rate != other.device_sigma_rate)
    mismatch("device_sigma_rate");
  runs += other.runs;
  outcomes.merge(other.outcomes);
  for (std::size_t t = 0; t < by_target.size(); ++t)
    by_target[t].merge(other.by_target[t]);
  refresh_fits();
}

std::string_view strike_target_name(StrikeTarget t) {
  switch (t) {
    case StrikeTarget::FunctionalUnit: return "functional-unit";
    case StrikeTarget::RegisterFile: return "register-file";
    case StrikeTarget::SharedMem: return "shared-memory";
    case StrikeTarget::GlobalMem: return "global-memory";
    case StrikeTarget::Hidden: return "hidden-resource";
    default: return "?";
  }
}

namespace {

constexpr std::size_t kKinds = static_cast<std::size_t>(UnitKind::kCount);
constexpr std::size_t kTargets = static_cast<std::size_t>(StrikeTarget::kCount);

/// One planned strike, fully determined before the trial starts so that
/// trials replay bit-identically.
struct StrikePlan {
  StrikeTarget target = StrikeTarget::FunctionalUnit;
  UnitKind unit = UnitKind::OTHER;
  std::uint64_t index = 0;        // FU: k-th lane-execution of `unit`
  double warp_pos = 0.0;          // RF: position along the warp-cycle integral
  double block_pos = 0.0;         // SH: position along the block-cycle integral
  std::uint64_t cycle_pos = 0;    // GL / Hidden: absolute trial cycle
  std::uint64_t rand = 0;         // entropy for fire-time choices
  bool mbu = false;
  bool addr_path = false;         // LDST address-generation strike
  bool addr_invalid = false;      // corrupted address escapes the VA layout
  bool hidden_sdc = false;        // Hidden: corrupt state (else handled outside)
};

/// A run's position along every strike domain: lanes issued per unit kind
/// (the issue domain FU strike indices are sampled from, golden
/// lane_per_unit), the warp- and block-cycle integrals (RF, SH) and the
/// cycles of completed launches (GL, Hidden). The strike observer and the
/// capture-pass recorder advance it with the same code, so a clock recorded
/// at a fork boundary is bit-identical to the one an unforked run holds
/// there.
struct StrikeClock {
  std::array<std::uint64_t, kKinds> lanes{};
  double warp = 0.0;
  double block = 0.0;
  std::uint64_t launch_cycles = 0;

  /// Counts the issue's lanes; returns the index of its first lane.
  std::uint64_t issue(const sim::WarpIssue& wi) {
    std::uint64_t& n =
        lanes[static_cast<std::size_t>(isa::unit_kind(wi.instr->op))];
    const std::uint64_t first = n;
    n += static_cast<unsigned>(std::popcount(wi.exec_mask));
    return first;
  }
  void advance(std::uint64_t from, std::uint64_t to, const sim::Machine& m) {
    const double delta = static_cast<double>(to - from);
    warp += delta * static_cast<double>(m.live_warp_count());
    block += delta * static_cast<double>(m.live_block_count());
  }
  void launch_end(const sim::LaunchStats& st) { launch_cycles += st.cycles; }
};

/// Applies planned strikes during a trial.
class BeamObserver final : public sim::SimObserver {
 public:
  BeamObserver(std::vector<StrikePlan> plans, unsigned max_regs)
      : plans_(std::move(plans)), max_regs_(std::max(1u, max_regs)) {
    for (const StrikePlan& p : plans_)
      if (p.target == StrikeTarget::FunctionalUnit) ++unfired_fu_;
  }

  /// A forked run resumes at a fork boundary with the clock an unforked run
  /// holds there.
  void preset(const StrikeClock& clock) { clock_ = clock; }

  // Target-scoped claims: each unfired plan claims only what it needs to
  // find its strike — time advances for RF / SH / GL / Hidden, warp issues
  // for FU — and the per-lane hooks are claimed only for the one issue that
  // holds an FU target lane (the executor re-reads the claims right after
  // on_warp_issue) and while an operand restore or output strike is
  // pending. Everything else runs on the bare whole-warp paths; once every
  // strike has fired no hook is claimed at all.
  unsigned wants() const override {
    unsigned w = 0;
    if (unfired_fu_ > 0) w |= kWantsWarpIssue;
    if (unfired_ > unfired_fu_) w |= kWantsTimeAdvance;
    if ((armed_ && unfired_fu_ > 0) || restore_pending_ || pending_plan_ >= 0)
      w |= kWantsBeforeExec | kWantsAfterExec;
    return w;
  }

  void on_launch_end(const sim::LaunchStats& st) override {
    clock_.launch_end(st);
  }

  void on_warp_issue(const sim::WarpIssue& wi) override {
    next_lane_ = clock_.issue(wi);
    const auto kind = isa::unit_kind(wi.instr->op);
    const std::uint64_t end = clock_.lanes[static_cast<std::size_t>(kind)];
    armed_ = false;
    for (std::size_t i = 0; i < plans_.size() && !armed_; ++i) {
      const StrikePlan& p = plans_[i];
      armed_ = !fired_[i] && p.target == StrikeTarget::FunctionalUnit &&
               p.unit == kind && p.index >= next_lane_ && p.index < end;
    }
  }

  // The executor calls before_exec once per executed lane of a claimed
  // issue, in lane order, before any lane of the instruction runs, so the
  // lane-execution index continues from the issue's first lane.
  // Output strikes are *scheduled* here and fired in the matching after_exec;
  // address / store-data strikes corrupt the source operand immediately and
  // restore it in the matching after_exec (the strike hits the unit's
  // operand latch, not the register file).
  void before_exec(sim::ExecContext& ctx) override {
    const auto kind = isa::unit_kind(ctx.instr->op);
    const std::uint64_t my_index = next_lane_++;
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      StrikePlan& p = plans_[i];
      if (fired_[i] || p.target != StrikeTarget::FunctionalUnit) continue;
      if (p.unit != kind) continue;
      if (p.index != my_index) continue;
      mark_fired(i);
      if (p.addr_path || store_value_path(*ctx.instr)) {
        const std::uint8_t reg =
            p.addr_path ? ctx.instr->src[0] : ctx.instr->src[1];
        if (reg == isa::kRZ) break;
        saved_reg_ = reg;
        saved_val_ = ctx.regs->get(reg);
        saved_lane_regs_ = ctx.regs;
        if (p.addr_path && p.addr_invalid) {
          // A flipped high virtual-address bit lands outside the sparse VA
          // layout: guaranteed device exception (paper §V-B: most corrupted
          // addresses are invalid because little of the VA space is mapped).
          ctx.regs->set(reg, 0xfff00000u | static_cast<std::uint32_t>(p.rand & 0xfffffu));
        } else if (p.addr_path) {
          // Low-bit flip: stays inside the mapped footprint (wrong data) or
          // breaks alignment.
          ctx.regs->set(reg, flip_bit32(saved_val_, p.rand % 18));
        } else {
          ctx.regs->set(reg, flip_bit32(saved_val_, p.rand % 32));
        }
        restore_pending_ = true;
      } else {
        pending_plan_ = static_cast<std::ptrdiff_t>(i);
        pending_regs_ = ctx.regs;
        pending_pc_ = ctx.pc;
      }
      break;
    }
  }

  void after_exec(sim::ExecContext& ctx) override {
    if (restore_pending_ && saved_lane_regs_ == ctx.regs) {
      saved_lane_regs_->set(saved_reg_, saved_val_);
      restore_pending_ = false;
    }
    if (pending_plan_ >= 0 && pending_regs_ == ctx.regs && pending_pc_ == ctx.pc) {
      fire_output_strike(plans_[static_cast<std::size_t>(pending_plan_)], ctx);
      pending_plan_ = -1;
    }
  }

  void on_time_advance(std::uint64_t from, std::uint64_t to,
                       sim::Machine& m) override {
    const double warp_before = clock_.warp;
    const double block_before = clock_.block;
    clock_.advance(from, to, m);
    const double warp_after = clock_.warp;
    const double block_after = clock_.block;
    const std::uint64_t cyc_before = clock_.launch_cycles + from;
    const std::uint64_t cyc_after = clock_.launch_cycles + to;

    for (std::size_t i = 0; i < plans_.size(); ++i) {
      if (fired_[i]) continue;
      StrikePlan& p = plans_[i];
      Rng rng(p.rand);
      switch (p.target) {
        case StrikeTarget::RegisterFile: {
          if (!(p.warp_pos >= warp_before && p.warp_pos < warp_after)) break;
          if (m.live_warp_count() == 0) break;
          const auto w = rng.uniform_u64(m.live_warp_count());
          const auto lane = static_cast<unsigned>(rng.uniform_u64(32));
          auto& regs = m.live_warp_lane(w, lane);
          const auto reg = static_cast<std::uint8_t>(rng.uniform_u64(max_regs_));
          const auto bit = static_cast<unsigned>(rng.uniform_u64(32));
          regs.set(reg, flip_bit32(regs.get(reg), bit));
          if (p.mbu) regs.set(reg, flip_bit32(regs.get(reg), (bit + 1) % 32));
          mark_fired(i);
          break;
        }
        case StrikeTarget::SharedMem: {
          if (!(p.block_pos >= block_before && p.block_pos < block_after)) break;
          if (m.live_block_count() == 0) break;
          auto& sh = m.live_block_shared(rng.uniform_u64(m.live_block_count()));
          if (sh.bits() == 0) break;
          const auto bit = rng.uniform_u64(sh.bits());
          sh.flip_bit(bit);
          if (p.mbu) sh.flip_bit(bit ^ 1);
          mark_fired(i);
          break;
        }
        case StrikeTarget::GlobalMem: {
          if (!(p.cycle_pos >= cyc_before && p.cycle_pos < cyc_after)) break;
          auto& g = m.global();
          if (g.allocated_bits() == 0) break;
          const auto bit = rng.uniform_u64(g.allocated_bits());
          g.flip_allocated_bit(bit);
          if (p.mbu) g.flip_allocated_bit(bit ^ 1);
          mark_fired(i);
          break;
        }
        case StrikeTarget::Hidden: {
          if (!(p.cycle_pos >= cyc_before && p.cycle_pos < cyc_after)) break;
          if (p.hidden_sdc) {
            // Dropped/duplicated micro-op: corrupt an arbitrary live value.
            if (m.live_warp_count() > 0) {
              const auto w = rng.uniform_u64(m.live_warp_count());
              auto& regs = m.live_warp_lane(
                  w, static_cast<unsigned>(rng.uniform_u64(32)));
              const auto reg = static_cast<std::uint8_t>(rng.uniform_u64(max_regs_));
              regs.set(reg, flip_bit32(regs.get(reg),
                                       static_cast<unsigned>(rng.uniform_u64(32))));
            }
          } else {
            m.raise_due(sim::DueKind::HiddenResource);
          }
          mark_fired(i);
          break;
        }
        default:
          break;
      }
    }
  }

 private:
  void mark_fired(std::size_t i) {
    fired_[i] = true;
    --unfired_;
    if (plans_[i].target == StrikeTarget::FunctionalUnit) --unfired_fu_;
  }

  static bool store_value_path(const isa::Instr& in) {
    return in.op == Opcode::STG || in.op == Opcode::STS;
  }

  void fire_output_strike(StrikePlan& p, sim::ExecContext& ctx) {
    Rng rng(p.rand);
    const isa::Instr& in = *ctx.instr;
    if (isa::writes_gpr(in.op) && in.dst != isa::kRZ) {
      const unsigned width = std::max(sim::dst_reg_width(in), 1u);
      const auto bsel = static_cast<unsigned>(rng.uniform_u64(width * 32));
      const auto reg = static_cast<std::uint8_t>(in.dst + bsel / 32);
      ctx.regs->set(reg, flip_bit32(ctx.regs->get(reg), bsel % 32));
    } else if (isa::writes_predicate(in.op)) {
      const std::uint8_t pr = in.dst & 0x07;
      ctx.regs->set_pred(pr, !ctx.regs->get_pred(pr));
    } else if (isa::is_control(in.op)) {
      *ctx.next_pc ^= 1u << rng.uniform_u64(10);
    }
  }

  std::vector<StrikePlan> plans_;
  std::vector<bool> fired_ = std::vector<bool>(plans_.size(), false);
  std::size_t unfired_ = plans_.size();
  std::size_t unfired_fu_ = 0;
  unsigned max_regs_;
  StrikeClock clock_;
  // FU: the current issue holds an unfired plan's target lane, and the
  // lane-execution index of its next lane.
  bool armed_ = false;
  std::uint64_t next_lane_ = 0;
  // Operand save/restore for address/store-data strikes.
  bool restore_pending_ = false;
  std::uint8_t saved_reg_ = 0;
  std::uint32_t saved_val_ = 0;
  sim::ThreadRegs* saved_lane_regs_ = nullptr;
  // Scheduled output strike (fires in the matching after_exec).
  std::ptrdiff_t pending_plan_ = -1;
  sim::ThreadRegs* pending_regs_ = nullptr;
  std::uint32_t pending_pc_ = 0;
};

/// A fork point of an accelerated beam experiment: the strike clock an
/// unforked run holds at one snapshot's boundary, and the boundary's
/// cumulative trial cycle.
struct ForkPoint {
  StrikeClock clock;
  std::uint64_t cycle = 0;
};

/// Rides on the engine's capture pass and records one ForkPoint per
/// snapshot mark. The executor snapshots at the end of the first cycle whose
/// cumulative issued lanes reach a mark, right before it delivers the next
/// time advance (or, for a mark a launch's last cycle crosses, the launch
/// end), so the recorder flushes at exactly those two points, before its
/// clock moves on.
class ForkPointRecorder final : public sim::SimObserver {
 public:
  explicit ForkPointRecorder(const std::vector<std::uint64_t>& marks)
      : marks_(marks) {}

  unsigned wants() const override { return kWantsWarpIssue | kWantsTimeAdvance; }

  void on_warp_issue(const sim::WarpIssue& wi) override {
    clock_.issue(wi);
    lanes_ += static_cast<unsigned>(std::popcount(wi.exec_mask));
  }
  void on_time_advance(std::uint64_t from, std::uint64_t to,
                       sim::Machine& m) override {
    flush(from);
    clock_.advance(from, to, m);
  }
  void on_launch_end(const sim::LaunchStats& st) override {
    flush(st.cycles);
    clock_.launch_end(st);
  }

  std::vector<ForkPoint> points;

 private:
  void flush(std::uint64_t cycle) {
    while (points.size() < marks_.size() && marks_[points.size()] <= lanes_)
      points.push_back({clock_, clock_.launch_cycles + cycle});
  }

  const std::vector<std::uint64_t>& marks_;
  StrikeClock clock_;
  std::uint64_t lanes_ = 0;  // issue-domain lanes over all launches
};

/// Whether a run resumed at `f` still meets its strike: every window of the
/// skipped prefix ends at or before the strike's position, so the strike
/// lands in the resumed suffix (FU: the target lane is issued after it).
bool strike_follows(const ForkPoint& f, const StrikePlan& p) {
  switch (p.target) {
    case StrikeTarget::FunctionalUnit:
      return f.clock.lanes[static_cast<std::size_t>(p.unit)] <= p.index;
    case StrikeTarget::RegisterFile: return f.clock.warp <= p.warp_pos;
    case StrikeTarget::SharedMem: return f.clock.block <= p.block_pos;
    default: return f.cycle <= p.cycle_pos;  // GL, Hidden
  }
}

struct Weights {
  std::array<double, kKinds> unit{};
  double rf = 0, sh = 0, gl = 0, hidden = 0;
  double total() const {
    double t = rf + sh + gl + hidden;
    for (double u : unit) t += u;
    return t;
  }
};

Weights compute_weights(const CrossSectionDb& db, const ExposureBreakdown& e) {
  Weights w;
  for (std::size_t k = 0; k < kKinds; ++k)
    w.unit[k] = db.unit[k] * e.unit_busy[k];
  w.rf = db.rf_bit * e.rf_bit_cycles;
  w.sh = db.shared_bit * e.shared_bit_cycles;
  w.gl = db.global_bit * e.global_bit_cycles;
  w.hidden = db.hidden_per_sm * e.hidden_sm_cycles;
  return w;
}

}  // namespace

namespace detail {
std::unique_ptr<sim::SimObserver> strike_observer(StrikeTarget target,
                                                  std::uint64_t position,
                                                  std::uint64_t rand,
                                                  unsigned max_regs,
                                                  UnitKind unit) {
  StrikePlan p;
  p.target = target;
  p.unit = unit;
  p.index = position;
  p.warp_pos = static_cast<double>(position);
  p.block_pos = static_cast<double>(position);
  p.cycle_pos = position;
  p.rand = rand;
  p.hidden_sdc = true;
  return std::make_unique<BeamObserver>(std::vector<StrikePlan>{p}, max_regs);
}
}  // namespace detail

ExposureBreakdown compute_exposure(const core::Workload& w,
                                   std::uint64_t allocated_bits) {
  const sim::LaunchStats& st = w.golden_stats();
  ExposureBreakdown e;
  e.unit_busy = st.lane_busy_per_unit;  // lanes x actual opcode latency
  e.rf_bit_cycles = st.warp_cycles * 32.0 * w.max_regs_per_thread() * 32.0;
  e.shared_bit_cycles = st.block_cycles * w.max_shared_bytes() * 8.0;
  e.global_bit_cycles =
      static_cast<double>(st.cycles) * static_cast<double>(allocated_bits);
  e.hidden_sm_cycles = static_cast<double>(st.sm_active_cycles);
  e.trial_cycles = st.cycles;
  return e;
}

BeamResult run_beam(const CrossSectionDb& db, const core::WorkloadFactory& factory,
                    const BeamConfig& config) {
  fault::TrialEngine engine("beam", "runs", factory, config.workers,
                            config.context());
  const core::Workload* const ref = engine.reference().w.get();
  const std::uint64_t allocated_bits =
      engine.reference().dev->memory().allocated_bits();
  const ExposureBreakdown exposure = compute_exposure(*ref, allocated_bits);
  const Weights weights = compute_weights(db, exposure);
  const double total_weight = weights.total();
  const sim::LaunchStats& golden = ref->golden_stats();

  BeamResult result;
  result.workload = ref->name();
  result.device = ref->config().gpu.name;
  result.ecc = config.ecc;
  result.mode = config.mode;
  result.device_sigma_rate =
      exposure.trial_cycles > 0 ? total_weight / exposure.trial_cycles : 0.0;

  // Shard selection: every shard derives the identical per-run seed chain
  // below and then owns the runs r with r % shard_count == shard_index. The
  // result reports the owned subset; BeamResult::merge over all shards
  // reproduces the unsharded experiment bit for bit.
  const std::vector<std::size_t> owned =
      engine.shard(config.runs, config.shard_index, config.shard_count);
  result.runs = owned.size();

  // Flat sampling vector: all unit kinds, then RF, SH, GL, Hidden.
  std::vector<double> flat(kKinds + 4);
  for (std::size_t k = 0; k < kKinds; ++k) flat[k] = weights.unit[k];
  flat[kKinds + 0] = weights.rf;
  flat[kKinds + 1] = weights.sh;
  flat[kKinds + 2] = weights.gl;
  flat[kKinds + 3] = weights.hidden;
  {
    const double t = weights.total();
    if (t > 0) {
      auto share = [&](StrikeTarget tg, double v) {
        result.weight_share[static_cast<std::size_t>(tg)] = v / t;
      };
      double fu = 0;
      for (std::size_t k = 0; k < kKinds; ++k) fu += weights.unit[k];
      share(StrikeTarget::FunctionalUnit, fu);
      share(StrikeTarget::RegisterFile, weights.rf);
      share(StrikeTarget::SharedMem, weights.sh);
      share(StrikeTarget::GlobalMem, weights.gl);
      share(StrikeTarget::Hidden, weights.hidden);
    }
  }
  const obs::RunContext& ctx = config.context();
  auto& metrics = obs::Registry::global();
  obs::Counter& m_runs = metrics.counter("gpurel_beam_runs_total");
  obs::Histogram& m_latency = metrics.histogram("gpurel_beam_run_latency_ms");
  // The whole run (trace category "run"; "beam" is the chunk spans'). Both
  // exits end it with the same keys.
  obs::Step run = ctx.step("beam_end", "beam " + result.workload, "run");
  ctx.event("beam_start",
            {{"workload", result.workload},
             {"device", result.device},
             {"runs", std::uint64_t{owned.size()}},
             {"workers", engine.workers().size()},
             {"mode", config.mode == BeamMode::Accelerated ? "accelerated"
                                                           : "natural"},
             {"ecc", config.ecc},
             {"shard_index", config.shard_index},
             {"shard_count", config.shard_count}});
  auto end_run = [&] {
    const std::uint64_t runs = result.outcomes.total();
    const double ms = run.elapsed_ms();
    run.end({{"workload", result.workload},
             {"runs", runs},
             {"masked", result.outcomes.masked},
             {"sdc", result.outcomes.sdc},
             {"due", result.outcomes.due},
             {"fit_sdc", result.fit_sdc},
             {"fit_due", result.fit_due},
             {"runs_per_sec",
              ms > 0 ? 1000.0 * static_cast<double>(runs) / ms : 0.0}});
  };

  if (total_weight <= 0.0) {
    end_run();
    return result;
  }

  // Samples one strike plan; returns nullopt-style flag via `immediate` when
  // the outcome is decided without simulation (ECC corrections/detections,
  // hidden strikes that hang or do nothing).
  struct Sampled {
    StrikePlan plan;
    bool immediate = false;
    core::Outcome immediate_outcome = core::Outcome::Masked;
    sim::DueKind immediate_due = sim::DueKind::None;
    StrikeTarget target = StrikeTarget::FunctionalUnit;
  };
  auto sample_strike = [&](Rng& rng) {
    Sampled s;
    const std::size_t pick = rng.weighted_pick(flat);
    StrikePlan& p = s.plan;
    p.rand = rng.next_u64();
    if (pick < kKinds) {
      s.target = StrikeTarget::FunctionalUnit;
      p.target = StrikeTarget::FunctionalUnit;
      p.unit = static_cast<UnitKind>(pick);
      p.index = rng.uniform_u64(std::max<std::uint64_t>(
          1, golden.lane_per_unit[pick]));
      p.addr_path =
          p.unit == UnitKind::LDST && rng.bernoulli(db.ldst_addr_fraction);
      p.addr_invalid = p.addr_path && rng.bernoulli(db.addr_invalid_fraction);
    } else {
      const std::size_t aux = pick - kKinds;
      p.mbu = rng.bernoulli(db.mbu_rate);
      if (aux == 0) {
        s.target = p.target = StrikeTarget::RegisterFile;
        p.warp_pos = rng.uniform() * golden.warp_cycles;
      } else if (aux == 1) {
        s.target = p.target = StrikeTarget::SharedMem;
        p.block_pos = rng.uniform() * golden.block_cycles;
      } else if (aux == 2) {
        s.target = p.target = StrikeTarget::GlobalMem;
        p.cycle_pos = rng.uniform_u64(std::max<std::uint64_t>(1, golden.cycles));
      } else {
        s.target = p.target = StrikeTarget::Hidden;
        p.cycle_pos = rng.uniform_u64(std::max<std::uint64_t>(1, golden.cycles));
        const double u = rng.uniform();
        if (u < db.hidden_due_fraction) {
          s.immediate = true;
          s.immediate_outcome = core::Outcome::Due;
          s.immediate_due = sim::DueKind::HiddenResource;
        } else if (u < db.hidden_due_fraction + db.hidden_sdc_fraction) {
          p.hidden_sdc = true;
        } else {
          s.immediate = true;
          s.immediate_outcome = core::Outcome::Masked;
        }
      }
      // SECDED: with ECC on, memory strikes are corrected (single bit) or
      // detected-uncorrectable (multi-bit upset).
      if (config.ecc && p.target != StrikeTarget::Hidden) {
        s.immediate = true;
        s.immediate_outcome = p.mbu ? core::Outcome::Due : core::Outcome::Masked;
        s.immediate_due = p.mbu ? sim::DueKind::EccDoubleBit : sim::DueKind::None;
      }
    }
    return s;
  };

  // Per-run seeds derived once by index: runs replay bit-identically
  // regardless of which worker executes them, in any order.
  std::vector<std::uint64_t> seeds(config.runs);
  {
    std::uint64_t salt = config.seed;
    for (auto& sd : seeds) sd = splitmix64(salt);
  }

  // Accelerated runs draw their one strike up front, so the fork planner
  // below sees every strike; a run draws nothing else.
  const bool accelerated = config.mode == BeamMode::Accelerated;
  std::vector<Sampled> samples(accelerated ? config.runs : 0);
  std::uint64_t simulated = 0;
  if (accelerated)
    for (const std::size_t r : owned) {
      Rng rng(seeds[r]);
      samples[r] = sample_strike(rng);
      if (!samples[r].immediate) ++simulated;
    }

  // Fork batching: an accelerated run is the fault-free trial until its
  // strike lands, so one fault-free pass captures snapshots at evenly placed
  // marks (TrialEngine::capture), a recorder on the same pass notes the
  // strike clock at each, and every simulated run resumes from the deepest
  // snapshot strictly before its strike with its observer preset to that
  // clock. -1 = simulate from the start. Natural-mode runs carry several
  // strikes and stay plain.
  std::vector<ForkPoint> points;
  std::vector<int> run_epoch;
  if (accelerated) {
    const std::vector<std::uint64_t> marks = fault::TrialEngine::even_marks(
        golden.lane_instructions,
        fault::auto_fork_epochs(ref->fork_safe(), golden.lane_instructions,
                                simulated));
    if (!marks.empty()) {
      ForkPointRecorder recorder(marks);
      const std::vector<sim::Snapshot>& snaps = engine.capture(marks, &recorder);
      // Defensive: a recorder out of step with the snapshots disables
      // forking, not runs.
      bool in_step = recorder.points.size() == snaps.size();
      for (std::size_t e = 0; in_step && e < snaps.size(); ++e)
        in_step = recorder.points[e].cycle ==
                  snaps[e].prior.cycles + snaps[e].exec.cycle;
      if (in_step) points = std::move(recorder.points);
    }
    if (!points.empty()) {
      run_epoch.assign(config.runs, -1);
      for (const std::size_t r : owned) {
        if (samples[r].immediate) continue;
        int e = -1;
        while (e + 1 < static_cast<int>(points.size()) &&
               strike_follows(points[static_cast<std::size_t>(e + 1)],
                              samples[r].plan))
          ++e;
        run_epoch[r] = e;
      }
    }
  }

  // Per-run records, tallied serially afterwards (bit-identical results for
  // any worker count).
  std::vector<core::Outcome> outcomes(config.runs, core::Outcome::Masked);
  std::vector<std::uint8_t> run_target(config.runs,
                                       static_cast<std::uint8_t>(kTargets));

  auto run_one = [&](fault::TrialWorker& st, std::size_t r) {
    const telemetry::Timer run_wall;
    if (accelerated) {
      const Sampled& s = samples[r];
      core::Outcome outcome = s.immediate_outcome;
      if (!s.immediate) {
        BeamObserver obs({s.plan}, st.max_regs);
        const int e = run_epoch.empty() ? -1 : run_epoch[r];
        if (e >= 0) {
          obs.preset(points[static_cast<std::size_t>(e)].clock);
          outcome =
              engine.run_forked(st, static_cast<std::size_t>(e), &obs).outcome;
        } else {
          outcome = st.w->run_trial(*st.dev, &obs).outcome;
        }
      }
      outcomes[r] = outcome;
      run_target[r] = static_cast<std::uint8_t>(s.target);
    } else {
      Rng rng(seeds[r]);
      // Natural flux: Poisson number of strikes this run.
      const double lambda = config.flux_scale * total_weight;
      const std::uint64_t n = rng.poisson(lambda);
      std::vector<StrikePlan> plans;
      bool immediate_due = false;
      for (std::uint64_t i = 0; i < n; ++i) {
        Sampled s = sample_strike(rng);
        if (s.immediate) {
          if (s.immediate_outcome == core::Outcome::Due) immediate_due = true;
        } else {
          plans.push_back(s.plan);
        }
      }
      core::Outcome outcome = core::Outcome::Masked;
      if (immediate_due) {
        outcome = core::Outcome::Due;
      } else if (!plans.empty()) {
        BeamObserver obs(std::move(plans), st.max_regs);
        outcome = st.w->run_trial(*st.dev, &obs).outcome;
      }
      outcomes[r] = outcome;
    }
    m_latency.observe(run_wall.elapsed_ms());
    m_runs.add();
  };

  // Chunks are *positions* in the owned order (dense [0, owned.size()));
  // run_one maps them back to global run ids. Under forking each chunk runs
  // grouped by epoch (stable sort), as campaign chunks do, so consecutive
  // runs resume from a hot snapshot on the delta-restore path.
  engine.run(owned.size(), [&](fault::TrialWorker& st, std::size_t begin,
                               std::size_t end) {
    std::vector<std::size_t> rs(owned.begin() + static_cast<std::ptrdiff_t>(begin),
                                owned.begin() + static_cast<std::ptrdiff_t>(end));
    if (!run_epoch.empty())
      std::stable_sort(rs.begin(), rs.end(), [&](std::size_t a, std::size_t b) {
        return run_epoch[a] < run_epoch[b];
      });
    for (const std::size_t r : rs) run_one(st, r);
  });

  for (const std::size_t r : owned) {
    result.outcomes.add(outcomes[r]);
    if (run_target[r] < kTargets) result.by_target[run_target[r]].add(outcomes[r]);
  }

  // Registry snapshot: beam outcomes by strike target.
  for (std::size_t t = 0; t < kTargets; ++t) {
    const fault::OutcomeCounts& c = result.by_target[t];
    if (c.total() == 0) continue;
    const auto target =
        std::string(strike_target_name(static_cast<StrikeTarget>(t)));
    auto bump = [&](const char* outcome, std::uint64_t n) {
      if (n > 0)
        metrics
            .counter("gpurel_beam_outcomes_total",
                     {{"target", target}, {"outcome", outcome}})
            .add(n);
    };
    bump("masked", c.masked);
    bump("sdc", c.sdc);
    bump("due", c.due);
  }

  // Convert conditional probabilities to FIT (arbitrary units). The scale
  // factor is a per-workload constant; the expression tree itself lives in
  // refresh_fits() so shard merges reproduce it exactly.
  const double t_cycles = static_cast<double>(std::max<std::uint64_t>(1, golden.cycles));
  if (config.mode == BeamMode::Accelerated) {
    result.fit_scale = total_weight / t_cycles;  // FIT = Σw/T * P(X|strike)
  } else {
    // FIT = count/(runs*flux*T)
    result.fit_scale = 1.0 / (config.flux_scale * t_cycles);
  }
  result.refresh_fits();

  end_run();
  return result;
}

}  // namespace gpurel::beam
