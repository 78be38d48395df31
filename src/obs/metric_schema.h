// The metric name schema, expanded from the X-macro manifest
// src/obs/metric_schema.def (see that file for the pattern grammar).
//
// Two consumers keep registration honest:
//   - The registry validates every first registration (Registry::Get* or
//     MetricSet::Get*) against the schema and records misses; the obs tests
//     drain Registry::TakeSchemaViolations() after exercising each
//     subsystem and assert nothing drifted.
//   - tools/dipclint's METRIC-SCHEMA rule checks the literal fragments of
//     registration call sites at lint time, before anything runs.
//
// This header is deliberately independent of DIPC_OBS_OFF: the schema is a
// compile-time table, so name checks stay testable even when the metrics
// layer itself is compiled out.
#ifndef DIPC_OBS_METRIC_SCHEMA_H_
#define DIPC_OBS_METRIC_SCHEMA_H_

#include <cstdint>
#include <string_view>

namespace dipc::obs {

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

const char* MetricKindName(MetricKind kind);

struct MetricSchemaEntry {
  MetricKind kind;
  std::string_view pattern;
};

inline constexpr MetricSchemaEntry kMetricSchema[] = {
#define DIPC_METRIC(kind, pattern) {MetricKind::k##kind, pattern},
#include "obs/metric_schema.def"
#undef DIPC_METRIC
};

// Component-wise match of `name` against one manifest pattern: '*' matches
// exactly one component, a component ending in '*' matches by prefix
// ("cpu*" vs "cpu3"), and a final "**" matches one or more remaining
// components. Exposed separately so the matcher itself is unit-testable.
bool MetricPatternMatches(std::string_view pattern, std::string_view name);

// True iff some schema entry of this kind matches `name`.
bool NameMatchesSchema(std::string_view name, MetricKind kind);

}  // namespace dipc::obs

#endif  // DIPC_OBS_METRIC_SCHEMA_H_
