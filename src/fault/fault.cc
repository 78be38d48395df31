#include "fault/fault.h"

#include <charconv>
#include <cstdlib>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_queue.h"

namespace dipc::fault {

const char* ActionName(Action a) {
  switch (a) {
    case Action::kNone:
      return "none";
    case Action::kFail:
      return "fail";
    case Action::kDelay:
      return "delay";
    case Action::kDropWake:
      return "drop_wake";
    case Action::kKill:
      return "kill";
  }
  return "unknown";
}

namespace {

base::ErrorCode ParseError(std::string* error, int line, const std::string& what) {
  if (error != nullptr) {
    *error = "fault plan line " + std::to_string(line) + ": " + what;
  }
  return base::ErrorCode::kInvalidArgument;
}

bool ParseU64(std::string_view s, uint64_t* out) {
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && p == s.data() + s.size();
}

bool ParseProb(std::string_view s, double* out) {
  // std::from_chars<double> is spotty across stdlibs; strtod on a bounded
  // copy is deterministic enough for a config parser.
  std::string buf(s);
  char* end = nullptr;
  *out = std::strtod(buf.c_str(), &end);
  return end == buf.c_str() + buf.size() && *out >= 0.0 && *out <= 1.0;
}

bool ParseAction(std::string_view s, Action* out) {
  if (s == "fail") {
    *out = Action::kFail;
  } else if (s == "delay") {
    *out = Action::kDelay;
  } else if (s == "drop_wake" || s == "drop") {
    *out = Action::kDropWake;
  } else if (s == "kill") {
    *out = Action::kKill;
  } else {
    return false;
  }
  return true;
}

std::vector<std::string_view> Tokenize(std::string_view line) {
  std::vector<std::string_view> toks;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) {
      ++i;
    }
    size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') {
      ++i;
    }
    if (i > start) {
      toks.push_back(line.substr(start, i - start));
    }
  }
  return toks;
}

}  // namespace

base::Result<Plan> Plan::Parse(std::string_view text, std::string* error) {
  Plan plan;
  int lineno = 0;
  while (!text.empty()) {
    ++lineno;
    size_t nl = text.find('\n');
    std::string_view line = text.substr(0, nl);
    text = nl == std::string_view::npos ? std::string_view() : text.substr(nl + 1);
    if (size_t hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    std::vector<std::string_view> toks = Tokenize(line);
    if (toks.empty()) {
      continue;
    }
    if (toks[0] == "seed") {
      if (toks.size() != 2 || !ParseU64(toks[1], &plan.seed)) {
        return ParseError(error, lineno, "expected 'seed <n>'");
      }
      continue;
    }
    if (toks[0] != "rule") {
      return ParseError(error, lineno, "unknown directive '" + std::string(toks[0]) + "'");
    }
    if (toks.size() < 3) {
      return ParseError(error, lineno, "expected 'rule <point> <action> [k=v...]'");
    }
    Rule rule;
    rule.point = std::string(toks[1]);
    if (!IsKnownPoint(rule.point)) {
      return ParseError(error, lineno,
                        "unknown probe point '" + rule.point +
                            "' (not in src/fault/probes.def; a typo'd point "
                            "would arm a rule no probe ever consults)");
    }
    if (!ParseAction(toks[2], &rule.action)) {
      return ParseError(error, lineno, "unknown action '" + std::string(toks[2]) + "'");
    }
    for (size_t t = 3; t < toks.size(); ++t) {
      std::string_view kv = toks[t];
      size_t eq = kv.find('=');
      if (eq == std::string_view::npos) {
        return ParseError(error, lineno, "expected key=value, got '" + std::string(kv) + "'");
      }
      std::string_view key = kv.substr(0, eq);
      std::string_view val = kv.substr(eq + 1);
      bool ok = true;
      if (key == "p") {
        ok = ParseProb(val, &rule.probability);
      } else if (key == "at") {
        ok = ParseU64(val, &rule.at);
      } else if (key == "every") {
        ok = ParseU64(val, &rule.every) && rule.every > 0;
      } else if (key == "max") {
        ok = ParseU64(val, &rule.max_fires);
      } else if (key == "delay_ns") {
        uint64_t ns = 0;
        ok = ParseU64(val, &ns);
        rule.delay = sim::Duration::Nanos(static_cast<double>(ns));
      } else if (key == "victim") {
        rule.victim = std::string(val);
      } else {
        return ParseError(error, lineno, "unknown key '" + std::string(key) + "'");
      }
      if (!ok) {
        return ParseError(error, lineno, "bad value for '" + std::string(key) + "'");
      }
    }
    if (rule.action == Action::kDelay && rule.delay <= sim::Duration::Zero()) {
      return ParseError(error, lineno, "delay rule needs delay_ns=<n>");
    }
    if (rule.action == Action::kKill && rule.victim.empty()) {
      return ParseError(error, lineno, "kill rule needs victim=<name>");
    }
    if (rule.probability == 0.0 && rule.at == 0 && rule.every == 0) {
      return ParseError(error, lineno, "rule needs a trigger (p=, at= or every=)");
    }
    plan.rules.push_back(std::move(rule));
  }
  return plan;
}

#ifndef DIPC_FAULT_OFF

Injector& Injector::Global() {
  static Injector* injector = new Injector();
  return *injector;
}

void Injector::Arm(Plan plan, const sim::EventQueue* clock) {
  plan_ = std::move(plan);
  clock_ = clock;
  rng_ = sim::Rng(plan_.seed);
  rule_state_.assign(plan_.rules.size(), RuleState{});
  point_probes_.clear();
  probe_count_ = 0;
  log_.clear();
  armed_ = true;
}

void Injector::Disarm() {
  armed_ = false;
  kill_handler_ = nullptr;
}

void Injector::SetKillHandler(std::function<void(const std::string&)> handler) {
  kill_handler_ = std::move(handler);
}

Decision Injector::Probe(std::string_view point, uint32_t cpu) {
  if (!armed_) {
    return {};
  }
  ++probe_count_;
  uint64_t* seen = nullptr;
  for (auto& [name, count] : point_probes_) {
    if (name == point) {
      seen = &count;
      break;
    }
  }
  if (seen == nullptr) {
    point_probes_.emplace_back(std::string(point), 0);
    seen = &point_probes_.back().second;
  }
  ++*seen;
  for (size_t i = 0; i < plan_.rules.size(); ++i) {
    const Rule& rule = plan_.rules[i];
    if (rule.point != point) {
      continue;
    }
    if (rule.max_fires != 0 && rule_state_[i].fires >= rule.max_fires) {
      continue;
    }
    bool fire = (rule.at != 0 && *seen == rule.at) ||
                (rule.every != 0 && *seen % rule.every == 0);
    if (!fire && rule.probability > 0.0) {
      fire = rng_.Chance(rule.probability);
    }
    if (!fire) {
      continue;
    }
    ++rule_state_[i].fires;
    return Fire(i, point, cpu);
  }
  return {};
}

uint64_t Injector::probes(std::string_view point) const {
  for (const auto& [name, count] : point_probes_) {
    if (name == point) {
      return count;
    }
  }
  return 0;
}

Decision Injector::Fire(size_t rule_index, std::string_view point, uint32_t cpu) {
  const Rule& rule = plan_.rules[rule_index];
  const sim::Time now = clock_ != nullptr ? clock_->now() : sim::Time::Zero();
  FiredRecord rec;
  rec.seq = log_.size();
  rec.time_ps = static_cast<uint64_t>(now.picos());
  rec.point_hash = HashPoint(point);
  rec.action = static_cast<uint32_t>(rule.action);
  rec.rule = static_cast<uint32_t>(rule_index);
  rec.payload =
      rule.action == Action::kDelay ? static_cast<uint64_t>(rule.delay.picos()) : 0;
  log_.push_back(rec);

  obs::Registry::Default().GetCounter("fault/injected")->Add();
  obs::Registry::Default().GetCounter("fault/point/" + std::string(point))->Add();
  obs::Trace().Record(cpu, obs::EventType::kFaultInjected,
                      static_cast<uint32_t>(rec.point_hash), rec.action, now);

  if (rule.action == Action::kKill) {
    if (kill_handler_) {
      kill_handler_(rule.victim);
    }
    // The kill already happened; the probed operation itself proceeds and
    // discovers the wreckage through the usual broken_/death machinery.
    return {};
  }
  return Decision{rule.action,
                  rule.action == Action::kDelay ? rule.delay : sim::Duration::Zero()};
}

#endif  // DIPC_FAULT_OFF

}  // namespace dipc::fault
