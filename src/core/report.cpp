#include "core/report.hpp"

#include <cmath>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "job/serialize.hpp"

namespace gpurel::core {

std::string prediction_verdict(double beam_fit, double predicted_fit) {
  const double r = signed_ratio(beam_fit, predicted_fit);
  if (r == 0.0) return "no events / no prediction";
  const double mag = ratio_magnitude(r);
  // Prose verdict for the human-readable report; the machine-readable ratio
  // goes through json::Value in the study export, so rounding here is fine.
  char buf[96];
  if (mag <= 5.0) {
    // gpurel-lint: allow(float-format) human-readable prose, not a result doc
    std::snprintf(buf, sizeof(buf), "within the paper's 5x band (%+.1fx)", r);
  } else if (r > 0) {
    // gpurel-lint: allow(float-format) human-readable prose, not a result doc
    std::snprintf(buf, sizeof(buf), "underestimated %.0fx", mag);
  } else {
    // gpurel-lint: allow(float-format) human-readable prose, not a result doc
    std::snprintf(buf, sizeof(buf), "overestimated %.0fx", mag);
  }
  return buf;
}

void write_code_report(std::ostream& os, const Study::CodeEvaluation& ev,
                       const ReportOptions& options) {
  os << "=== " << ev.name << " ===\n";
  if (options.include_profile) {
    Table t({"metric", "value"});
    t.set_align(1, Align::Right);
    t.row().cell("IPC").cell(ev.profile.ipc, 2);
    t.row().cell("achieved occupancy").cell(ev.profile.occupancy, 2);
    t.row().cell("phi (Eq. 4)").cell(ev.profile.phi(), 2);
    t.row().cell("registers/thread").cell_int(ev.profile.regs_per_thread);
    t.row().cell("shared bytes/block").cell_int(ev.profile.shared_bytes);
    for (std::size_t c = 0; c < static_cast<std::size_t>(isa::MixClass::kCount);
         ++c) {
      const auto cls = static_cast<isa::MixClass>(c);
      t.row()
          .cell("mix % " + std::string(isa::mix_class_name(cls)))
          .cell(100.0 * ev.profile.mix_of(cls), 1);
    }
    t.row().cell("active-lane fraction").cell(ev.profile.active_lane_fraction, 3);
    t.row().cell("SM imbalance (max/mean)").cell(ev.profile.sm_imbalance, 2);
    t.row()
        .cell("global bytes (ld+st)")
        .cell_int(static_cast<long long>(ev.profile.global_load_bytes +
                                         ev.profile.global_store_bytes));
    t.row()
        .cell("shared bytes (ld+st)")
        .cell_int(static_cast<long long>(ev.profile.shared_load_bytes +
                                         ev.profile.shared_store_bytes));
    if (options.csv) t.render_csv(os);
    else t.render_text(os);

    if (options.hotspot_top_n > 0 && !ev.profile.pc_hotspots.empty()) {
      Table h({"kernel", "pc", "instr", "warp execs", "share %", "lanes %"});
      h.set_align(3, Align::Right);
      const std::size_t n = std::min<std::size_t>(options.hotspot_top_n,
                                                  ev.profile.pc_hotspots.size());
      for (std::size_t i = 0; i < n; ++i) {
        const auto& hs = ev.profile.pc_hotspots[i];
        h.row()
            .cell(hs.program)
            .cell_int(static_cast<long long>(hs.pc))
            .cell(hs.mnemonic)
            .cell_int(static_cast<long long>(hs.warp_count))
            .cell(ev.profile.warp_instructions > 0
                      ? 100.0 * static_cast<double>(hs.warp_count) /
                            static_cast<double>(ev.profile.warp_instructions)
                      : 0.0,
                  1)
            .cell(100.0 * hs.lane_fraction, 1);
      }
      if (options.csv) h.render_csv(os);
      else h.render_text(os);
    }
  }
  if (options.include_avf) {
    Table t({"injector", "SDC AVF", "DUE AVF", "masked", "injections", "note"});
    auto add = [&](const char* name, const fault::CampaignResult& r,
                   const std::string& note) {
      t.row()
          .cell(name)
          .cell(r.overall_avf_sdc(), 3)
          .cell(r.overall_avf_due(), 3)
          .cell(r.overall_masked(), 3)
          .cell_int(static_cast<long long>(r.total_injections()))
          .cell(note);
    };
    if (ev.sassifi) add("SASSIFI", *ev.sassifi, "");
    if (ev.nvbitfi) {
      std::string note;
      if (ev.nvbitfi_substituted) note = "AVF from Volta (library code)";
      if (ev.half_avf_substituted)
        note += note.empty() ? "FP16 AVFs from FP32 variant"
                             : "; FP16 AVFs from FP32 variant";
      add("NVBitFI", *ev.nvbitfi, note);
    }
    if (ev.microarch)
      add("MicroArch", *ev.microarch, "simulator-only (hidden state)");
    if (!ev.sassifi && !ev.nvbitfi && !ev.microarch)
      os << "(not instrumentable)\n";
    else if (options.csv) t.render_csv(os);
    else t.render_text(os);

    // DUE-cause taxonomy (core::DueCause): how each campaign's DUEs
    // manifested, one column per cause but None, in enum order. Campaigns
    // without DUEs contribute no row.
    Table d({"injector", "hang", "launch fail", "watchdog", "barrier deadlock",
             "ecc"});
    static_assert(core::kDueCauses == 6, "one column per DUE cause");
    auto add_causes = [&](const char* name, const fault::CampaignResult& r) {
      if (r.due_causes.total() == 0) return;
      d.row().cell(name);
      for (std::size_t c = 1; c < core::kDueCauses; ++c)
        d.cell_int(static_cast<long long>(r.due_causes.by_cause[c]));
    };
    if (ev.sassifi) add_causes("SASSIFI", *ev.sassifi);
    if (ev.nvbitfi) add_causes("NVBitFI", *ev.nvbitfi);
    if (ev.microarch) add_causes("MicroArch", *ev.microarch);
    if (d.num_rows() > 0) {
      if (options.csv) d.render_csv(os);
      else d.render_text(os);
    }
  }
  if (options.include_propagation) {
    // Only propagation-enabled campaigns carry a report (plain-text only:
    // the CSV form keeps its historical column set).
    auto add = [&](const char* name, const fault::CampaignResult& r) {
      if (!r.propagation.has_value() || options.csv) return;
      std::string text;
      obs::write_propagation_report(text, *r.propagation);
      os << name << " " << text;
    };
    if (ev.sassifi) add("SASSIFI", *ev.sassifi);
    if (ev.nvbitfi) add("NVBitFI", *ev.nvbitfi);
  }
  if (options.include_beam) {
    Table t({"ECC", "SDC FIT", "SDC 95% CI", "DUE FIT", "DUE 95% CI"});
    auto add = [&](const char* ecc, const beam::BeamResult& r) {
      t.row()
          .cell(ecc)
          .cell(format_sci(r.fit_sdc))
          .cell("[" + format_sci(r.fit_sdc_ci.lower) + ", " +
                format_sci(r.fit_sdc_ci.upper) + "]")
          .cell(format_sci(r.fit_due))
          .cell("[" + format_sci(r.fit_due_ci.lower) + ", " +
                format_sci(r.fit_due_ci.upper) + "]");
    };
    add("off", ev.beam_ecc_off);
    add("on", ev.beam_ecc_on);
    if (options.csv) t.render_csv(os);
    else t.render_text(os);
  }
  if (options.include_prediction) {
    Table t({"prediction", "SDC", "verdict", "DUE", "DUE verdict"});
    auto add = [&](const char* tag, const std::optional<model::FitPrediction>& p,
                   const beam::BeamResult& beam) {
      if (!p) return;
      t.row()
          .cell(tag)
          .cell(format_sci(p->sdc))
          .cell(prediction_verdict(beam.fit_sdc, p->sdc))
          .cell(format_sci(p->due))
          .cell(prediction_verdict(beam.fit_due, p->due));
    };
    add("SASSIFI/ECC off", ev.pred_sassifi_off, ev.beam_ecc_off);
    add("SASSIFI/ECC on", ev.pred_sassifi_on, ev.beam_ecc_on);
    add("NVBitFI/ECC off", ev.pred_nvbitfi_off, ev.beam_ecc_off);
    add("NVBitFI/ECC on", ev.pred_nvbitfi_on, ev.beam_ecc_on);
    if (t.num_rows() > 0) {
      if (options.csv) t.render_csv(os);
      else t.render_text(os);
    }

    // Injector-reach DUE sweep (§V): the predicted DUE FIT as the injector
    // is granted reach into one more micro-architectural class per level,
    // closing the gap toward the ECC-on beam measurement.
    if (ev.reach) {
      Table r({"reach", "predicted DUE", "verdict vs beam"});
      for (const auto& level : ev.reach->levels)
        r.row()
            .cell(level.name)
            .cell(format_sci(level.predicted_due))
            .cell(prediction_verdict(ev.reach->beam_due, level.predicted_due));
      r.row()
          .cell("beam (ECC on)")
          .cell(format_sci(ev.reach->beam_due))
          .cell("measured");
      if (options.csv) r.render_csv(os);
      else r.render_text(os);
    }
  }
}

json::Value code_report_json(const Study::CodeEvaluation& ev) {
  using json::Value;
  Value v = Value::object();
  v.set("schema_version", job::kResultSchemaVersion);
  v.set("type", "code_report");
  v.set("code", ev.name);
  {
    Value p = Value::object();
    p.set("ipc", ev.profile.ipc);
    p.set("occupancy", ev.profile.occupancy);
    p.set("phi", ev.profile.phi());
    p.set("regs_per_thread", ev.profile.regs_per_thread);
    p.set("shared_bytes", ev.profile.shared_bytes);
    p.set("active_lane_fraction", ev.profile.active_lane_fraction);
    p.set("sm_imbalance", ev.profile.sm_imbalance);
    v.set("profile", std::move(p));
  }
  v.set("sassifi", ev.sassifi ? job::campaign_result_to_json(*ev.sassifi)
                              : Value());
  v.set("nvbitfi", ev.nvbitfi ? job::campaign_result_to_json(*ev.nvbitfi)
                              : Value());
  v.set("microarch", ev.microarch ? job::campaign_result_to_json(*ev.microarch)
                                  : Value());
  v.set("nvbitfi_substituted", ev.nvbitfi_substituted);
  v.set("half_avf_substituted", ev.half_avf_substituted);
  {
    Value b = Value::object();
    b.set("ecc_on", job::beam_result_to_json(ev.beam_ecc_on));
    b.set("ecc_off", job::beam_result_to_json(ev.beam_ecc_off));
    v.set("beam", std::move(b));
  }
  {
    Value preds = Value::object();
    auto add = [&](const char* key,
                   const std::optional<model::FitPrediction>& p) {
      if (!p) {
        preds.set(key, Value());
        return;
      }
      Value e = Value::object();
      e.set("sdc", p->sdc);
      e.set("due", p->due);
      preds.set(key, std::move(e));
    };
    add("sassifi_ecc_on", ev.pred_sassifi_on);
    add("sassifi_ecc_off", ev.pred_sassifi_off);
    add("nvbitfi_ecc_on", ev.pred_nvbitfi_on);
    add("nvbitfi_ecc_off", ev.pred_nvbitfi_off);
    v.set("predictions", std::move(preds));
  }
  if (ev.reach) {
    Value r = Value::object();
    r.set("schema_version", kReachSweepSchemaVersion);
    r.set("base", ev.reach->base);
    r.set("beam_due", ev.reach->beam_due);
    r.set("hidden_due", ev.reach->hidden_due);
    Value levels = Value::array();
    for (const auto& level : ev.reach->levels) {
      Value e = Value::object();
      e.set("reach", level.name);
      if (level.granted)
        e.set("granted", fault::site_class_names(*level.granted).model);
      e.set("predicted_due", level.predicted_due);
      levels.push_back(std::move(e));
    }
    r.set("levels", std::move(levels));
    v.set("injector_reach", std::move(r));
  } else {
    v.set("injector_reach", Value());
  }
  return v;
}

json::Value micro_report_json(
    const std::vector<Study::MicroCharacterization>& micro) {
  using json::Value;
  Value v = Value::object();
  v.set("schema_version", job::kResultSchemaVersion);
  v.set("type", "micro_report");
  Value rows = Value::array();
  for (const auto& mc : micro) {
    Value e = Value::object();
    e.set("name", mc.name);
    e.set("unit", mc.is_rf ? std::string_view("RF")
                           : isa::unit_kind_name(mc.kind));
    e.set("micro_avf", mc.micro_avf);
    e.set("exposed_bits", mc.exposed_bits);
    e.set("beam", job::beam_result_to_json(mc.beam));
    rows.push_back(std::move(e));
  }
  v.set("benches", std::move(rows));
  return v;
}

void write_micro_report(std::ostream& os,
                        const std::vector<Study::MicroCharacterization>& micro,
                        bool csv) {
  Table t({"bench", "unit", "SDC FIT", "DUE FIT", "micro AVF", "runs"});
  for (const auto& mc : micro) {
    t.row()
        .cell(mc.name)
        .cell(mc.is_rf ? "RF" : std::string(isa::unit_kind_name(mc.kind)))
        .cell(format_sci(mc.beam.fit_sdc))
        .cell(format_sci(mc.beam.fit_due))
        .cell(mc.micro_avf, 2)
        .cell_int(static_cast<long long>(mc.beam.runs));
  }
  if (csv) t.render_csv(os);
  else t.render_text(os);
}

}  // namespace gpurel::core
