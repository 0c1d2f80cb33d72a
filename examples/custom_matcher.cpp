// CERTA treats the ER model as a black box — anything implementing
// models::Matcher can be explained, not just the three bundled DL
// stand-ins. This example plugs in a hand-written rule-based matcher
// (the kind a practitioner might already have in production) and asks
// CERTA which attributes its rules actually depend on. The explanation
// recovers the rule structure without reading the code.
//
//   ./build/examples/custom_matcher

#include <algorithm>
#include <iostream>

#include "core/certa_explainer.h"
#include "data/benchmarks.h"
#include "models/scoring_engine.h"
#include "models/trainer.h"
#include "text/similarity.h"
#include "text/tokenizer.h"
#include "util/string_utils.h"

namespace {

/// A hand-written matcher for the restaurant benchmark: two records
/// match when the phone numbers agree, or when both the name and the
/// street address are very similar. City and type are ignored entirely
/// — which the explanation should expose.
class RuleBasedMatcher : public certa::models::Matcher {
 public:
  explicit RuleBasedMatcher(const certa::data::Schema& schema)
      : name_index_(schema.IndexOf("name")),
        addr_index_(schema.IndexOf("addr")),
        phone_index_(schema.IndexOf("phone")) {}

  double Score(const certa::data::Record& u,
               const certa::data::Record& v) const override {
    // Rule 1: identical normalized phone number -> match.
    if (phone_index_ >= 0) {
      std::string phone_u = certa::text::Normalize(u.value(phone_index_));
      std::string phone_v = certa::text::Normalize(v.value(phone_index_));
      if (!phone_u.empty() && phone_u == phone_v) return 0.95;
    }
    // Rule 2: name AND address highly similar -> match.
    double name_similarity =
        name_index_ >= 0 ? certa::text::AttributeSimilarity(
                               u.value(name_index_), v.value(name_index_))
                         : 0.0;
    double addr_similarity =
        addr_index_ >= 0 ? certa::text::AttributeSimilarity(
                               u.value(addr_index_), v.value(addr_index_))
                         : 0.0;
    double rule2 = std::min(name_similarity, addr_similarity);
    return rule2 >= 0.55 ? 0.5 + 0.5 * rule2 : 0.45 * rule2;
  }

  std::string name() const override { return "RuleBased"; }

 private:
  int name_index_;
  int addr_index_;
  int phone_index_;
};

}  // namespace

int main() {
  certa::data::Dataset dataset = certa::data::MakeBenchmark("FZ");
  RuleBasedMatcher matcher(dataset.left.schema());
  std::cout << "rule-based matcher test F1 = "
            << certa::FormatDouble(
                   certa::models::EvaluateF1(matcher, dataset.left,
                                             dataset.right, dataset.test),
                   3)
            << "\n";

  certa::models::ScoringEngine cached(&matcher);
  certa::explain::ExplainContext context{&cached, &dataset.left,
                                         &dataset.right};
  certa::core::CertaExplainer explainer(context);

  // Average the saliency over several predicted matches: the profile
  // shows which attributes the rules actually consult.
  std::vector<double> totals;
  int explained = 0;
  for (const auto& pair : dataset.test) {
    const auto& u = dataset.left.record(pair.left_index);
    const auto& v = dataset.right.record(pair.right_index);
    if (!cached.Predict(u, v)) continue;
    certa::core::CertaResult result = explainer.Explain(u, v);
    std::vector<double> flat = result.saliency.Flattened();
    if (totals.empty()) totals.assign(flat.size(), 0.0);
    for (size_t i = 0; i < flat.size(); ++i) totals[i] += flat[i];
    if (++explained >= 10) break;
  }
  if (explained == 0) {
    std::cout << "no predicted matches to explain\n";
    return 0;
  }
  std::cout << "\nmean CERTA saliency over " << explained
            << " predicted matches (the rules use phone, name, addr — "
               "and the explanation should rank city/type/class "
               "lowest):\n";
  const int left_n = dataset.left.schema().size();
  for (size_t i = 0; i < totals.size(); ++i) {
    bool is_left = static_cast<int>(i) < left_n;
    std::string name =
        std::string(is_left ? "L_" : "R_") +
        (is_left ? dataset.left.schema().name(static_cast<int>(i))
                 : dataset.right.schema().name(static_cast<int>(i) - left_n));
    std::cout << "  " << name << " = "
              << certa::FormatDouble(totals[i] / explained, 3) << "\n";
  }
  return 0;
}
