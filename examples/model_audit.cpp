// Model governance audit: before trusting a matcher, profile the data,
// learn an interpretable reference rule set, aggregate CERTA
// explanations over the test split, and check whether the black-box
// model attends to the same attributes as the transparent rules — the
// "check whether a classifier is making correct predictions for sound
// reasons" use case from the paper's introduction.
//
//   ./build/examples/model_audit

#include <iostream>

#include "core/certa_explainer.h"
#include "data/benchmarks.h"
#include "data/profiling.h"
#include "explain/aggregate.h"
#include "models/rule_model.h"
#include "models/scoring_engine.h"
#include "models/trainer.h"
#include "util/string_utils.h"

int main() {
  certa::data::Dataset dataset = certa::data::MakeBenchmark("FZ");

  // 1. Data profile: what do the sources even look like?
  std::cout << "=== data profile ===\n"
            << "table " << dataset.left.name() << ":\n"
            << certa::data::RenderProfiles(
                   certa::data::ProfileTable(dataset.left));

  // 2. Transparent reference: a rule set whose logic is readable.
  certa::models::RuleModel rules;
  rules.Fit(dataset);
  std::cout << "\n=== interpretable reference model ===\n"
            << "rule-set test F1 = "
            << certa::FormatDouble(
                   certa::models::EvaluateF1(rules, dataset.left,
                                             dataset.right, dataset.test),
                   3)
            << "\n"
            << rules.Describe(dataset.left.schema());

  // 3. The black box under audit.
  auto model = certa::models::TrainMatcher(
      certa::models::ModelKind::kDitto, dataset);
  certa::models::ScoringEngine cached(model.get());
  std::cout << "\n=== black box under audit ===\n"
            << model->name() << " test F1 = "
            << certa::FormatDouble(
                   certa::models::EvaluateF1(cached, dataset.left,
                                             dataset.right, dataset.test),
                   3)
            << "\n";

  // 4. Aggregate CERTA explanations of the black box.
  certa::explain::ExplainContext context{&cached, &dataset.left,
                                         &dataset.right};
  certa::core::CertaExplainer explainer(context);
  std::vector<certa::data::LabeledPair> pairs = dataset.test;
  if (pairs.size() > 16) pairs.resize(16);
  std::vector<certa::explain::SaliencyExplanation> explanations;
  for (const auto& pair : pairs) {
    explanations.push_back(explainer.ExplainSaliency(
        dataset.left.record(pair.left_index),
        dataset.right.record(pair.right_index)));
  }
  certa::explain::GlobalExplanation global =
      certa::explain::AggregateExplanations(context, pairs, dataset.left,
                                            dataset.right, explanations);
  std::cout << "\n=== global CERTA explanation of the black box ===\n"
            << certa::explain::RenderGlobalExplanation(
                   global, dataset.left.schema(), dataset.right.schema());

  // 5. The audit question: do the black box's most necessary attributes
  //    appear in the transparent rules?
  std::cout << "\n=== audit verdict ===\n";
  std::vector<bool> used_by_rules(
      static_cast<size_t>(dataset.left.schema().size()), false);
  for (const certa::models::MatchingRule& rule : rules.rules()) {
    for (const auto& condition : rule.conditions) {
      used_by_rules[static_cast<size_t>(condition.attribute)] = true;
    }
  }
  int agreement = 0;
  int checked = 0;
  for (const certa::explain::AttributeRef& ref :
       global.mean_match.Ranked()) {
    if (checked >= 3) break;  // top-3 black-box attributes
    ++checked;
    bool sound = used_by_rules[static_cast<size_t>(ref.index)];
    if (sound) ++agreement;
    std::cout << "  " << certa::explain::QualifiedAttributeName(
                     dataset.left.schema(), dataset.right.schema(), ref)
              << (sound ? "  — also used by the transparent rules"
                        : "  — NOT used by the transparent rules")
              << "\n";
  }
  std::cout << (agreement >= 2
                    ? "verdict: the black box attends to rule-backed "
                      "attributes (predicting for sound reasons)\n"
                    : "verdict: the black box relies on attributes the "
                      "rules do not — investigate before trusting it\n");
  return 0;
}
