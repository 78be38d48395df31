// dipclint-path: src/apps/fix/bad_holder_off_schema_name.cc
// The same two mistakes as bad_off_schema_name.cc, registered through an
// object's MetricSet: a fully literal name that is in no pattern, and a
// Histogram registered under the Counter series chan/*/sends.
#include "obs/metrics.h"

namespace dipc {

class Widget {
 public:
  explicit Widget(const std::string& id) {
    m_calls_ = metrics_.GetCounter("definitely/not/in/schema");
    m_sends_ = metrics_.GetHistogram("chan/" + id + "/sends");
  }

 private:
  obs::MetricSet metrics_;
  obs::Counter* m_calls_ = nullptr;
  obs::Histogram* m_sends_ = nullptr;
};

}  // namespace dipc
