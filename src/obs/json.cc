#include "obs/json.h"

#include <cmath>
#include <cstdio>

#include "daf/engine.h"

namespace daf::obs {

void JsonWriter::NewlineIndent() {
  if (indent_ <= 0) return;
  out_.push_back('\n');
  out_.append(counts_.size() * static_cast<size_t>(indent_), ' ');
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // the key already placed the comma and indentation
  }
  if (!counts_.empty()) {
    if (counts_.back() > 0) out_.push_back(',');
    ++counts_.back();
    NewlineIndent();
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_.push_back('{');
  counts_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  bool empty = counts_.empty() || counts_.back() == 0;
  if (!counts_.empty()) counts_.pop_back();
  if (!empty) NewlineIndent();
  out_.push_back('}');
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_.push_back('[');
  counts_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  bool empty = counts_.empty() || counts_.back() == 0;
  if (!counts_.empty()) counts_.pop_back();
  if (!empty) NewlineIndent();
  out_.push_back(']');
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  if (!counts_.empty()) {
    if (counts_.back() > 0) out_.push_back(',');
    ++counts_.back();
    NewlineIndent();
  }
  out_.push_back('"');
  AppendEscaped(key);
  out_.append(indent_ > 0 ? "\": " : "\":");
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_.push_back('"');
  AppendEscaped(value);
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t value) {
  BeforeValue();
  out_.append(std::to_string(value));
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  out_.append(std::to_string(value));
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_.append("null");
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  out_.append(buf);
  // "%g" may print an integral double without a decimal point; that is
  // still valid JSON, so it is left as-is.
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_.append(value ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_.append("null");
  return *this;
}

void JsonWriter::AppendEscaped(std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out_.append("\\\"");
        break;
      case '\\':
        out_.append("\\\\");
        break;
      case '\n':
        out_.append("\\n");
        break;
      case '\r':
        out_.append("\\r");
        break;
      case '\t':
        out_.append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out_.append(buf);
        } else {
          out_.push_back(c);
        }
    }
  }
}

namespace {

void WriteBacktrackProfile(JsonWriter& w, const BacktrackProfile& bt) {
  w.BeginObject();
  w.Key("empty_candidate_prunes").Uint(bt.empty_candidate_prunes);
  w.Key("conflict_prunes").Uint(bt.conflict_prunes);
  w.Key("failing_set_skips").Uint(bt.failing_set_skips);
  w.Key("boost_skips").Uint(bt.boost_skips);
  w.Key("intersect_merge").Uint(bt.intersect_merge);
  w.Key("intersect_gallop").Uint(bt.intersect_gallop);
  w.Key("intersect_bitmap").Uint(bt.intersect_bitmap);
  w.Key("peak_depth").Uint(bt.peak_depth);
  w.Key("depth_histogram").BeginArray();
  for (uint64_t c : bt.depth_histogram) w.Uint(c);
  w.EndArray();
  w.EndObject();
}

void WriteCsProfile(JsonWriter& w, const CsProfile& cs) {
  w.BeginObject();
  w.Key("seed_considered").Uint(cs.seed_considered);
  w.Key("degree_rejected").Uint(cs.degree_rejected);
  w.Key("mnd_rejected").Uint(cs.mnd_rejected);
  w.Key("nlf_rejected").Uint(cs.nlf_rejected);
  w.Key("initial_candidates").Uint(cs.initial_candidates);
  w.Key("final_candidates").Uint(cs.final_candidates);
  w.Key("edges_materialized").Uint(cs.edges_materialized);
  w.Key("seed_ms").Double(cs.seed_ms);
  w.Key("refine_ms").Double(cs.refine_ms);
  w.Key("edges_ms").Double(cs.edges_ms);
  w.Key("passes").BeginArray();
  for (const CsPassStats& p : cs.passes) {
    w.BeginObject();
    w.Key("pass").Uint(p.pass);
    w.Key("reversed_dag").Bool(p.reversed_dag);
    w.Key("removed").Uint(p.removed);
    w.Key("ms").Double(p.ms);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

}  // namespace

void WriteProfile(JsonWriter& w, const SearchProfile& profile) {
  w.BeginObject();
  w.Key("stages").BeginObject();
  w.Key("dag_build_ms").Double(profile.dag_build_ms);
  w.Key("cs_build_ms").Double(profile.cs_build_ms);
  w.Key("weights_ms").Double(profile.weights_ms);
  w.Key("search_ms").Double(profile.search_ms);
  w.EndObject();
  w.Key("cs");
  WriteCsProfile(w, profile.cs);
  w.Key("memory").BeginObject();
  w.Key("arena_bytes").Uint(profile.memory.arena_bytes);
  w.Key("arena_peak_bytes").Uint(profile.memory.arena_peak_bytes);
  w.Key("arena_blocks_acquired").Uint(profile.memory.arena_blocks_acquired);
  w.Key("arena_capacity_bytes").Uint(profile.memory.arena_capacity_bytes);
  w.Key("budget_limit_bytes").Uint(profile.memory.budget_limit_bytes);
  w.Key("budget_used_bytes").Uint(profile.memory.budget_used_bytes);
  w.Key("budget_peak_bytes").Uint(profile.memory.budget_peak_bytes);
  w.Key("budget_rejections").Uint(profile.memory.budget_rejections);
  w.Key("budget_exhausted").Bool(profile.memory.budget_exhausted);
  w.EndObject();
  w.Key("backtrack");
  WriteBacktrackProfile(w, profile.backtrack);
  w.Key("threads").Uint(profile.threads);
  if (profile.threads > 1 || profile.parallel.tasks_executed > 0) {
    const ParallelProfile& par = profile.parallel;
    w.Key("parallel").BeginObject();
    w.Key("tasks_executed").Uint(par.tasks_executed);
    w.Key("steals").Uint(par.steals);
    w.Key("donations").Uint(par.donations);
    w.Key("idle_ms").Double(par.idle_ms);
    w.Key("call_imbalance").Double(par.call_imbalance);
    w.Key("per_thread_calls").BeginArray();
    for (uint64_t c : par.per_thread_calls) w.Uint(c);
    w.EndArray();
    w.Key("per_thread_steals").BeginArray();
    for (uint64_t c : par.per_thread_steals) w.Uint(c);
    w.EndArray();
    w.EndObject();
  }
  if (!profile.thread_profiles.empty()) {
    w.Key("thread_profiles").BeginArray();
    for (const BacktrackProfile& t : profile.thread_profiles) {
      WriteBacktrackProfile(w, t);
    }
    w.EndArray();
  }
  w.EndObject();
}

void WriteMatchResult(JsonWriter& w, const MatchResult& result) {
  w.BeginObject();
  w.Key("ok").Bool(result.ok);
  if (!result.error.empty()) w.Key("error").String(result.error);
  w.Key("embeddings").Uint(result.embeddings);
  w.Key("recursive_calls").Uint(result.recursive_calls);
  w.Key("limit_reached").Bool(result.limit_reached);
  w.Key("timed_out").Bool(result.timed_out);
  w.Key("cancelled").Bool(result.cancelled);
  w.Key("resource_exhausted").Bool(result.resource_exhausted);
  w.Key("cs_certified_negative").Bool(result.cs_certified_negative);
  w.Key("preprocess_ms").Double(result.preprocess_ms);
  w.Key("search_ms").Double(result.search_ms);
  w.Key("cs_candidates").Uint(result.cs_candidates);
  w.Key("cs_edges").Uint(result.cs_edges);
  w.EndObject();
}

std::string ProfileToJson(const SearchProfile& profile, int indent) {
  JsonWriter w(indent);
  WriteProfile(w, profile);
  return w.str();
}

std::string MatchResultToJson(const MatchResult& result,
                              const SearchProfile* profile, int indent) {
  JsonWriter w(indent);
  w.BeginObject();
  w.Key("result");
  WriteMatchResult(w, result);
  if (profile != nullptr) {
    w.Key("profile");
    WriteProfile(w, *profile);
  }
  w.EndObject();
  return w.str();
}

}  // namespace daf::obs
