// A full ER pipeline on raw tables, the way a downstream user would run
// the library in production: block candidate pairs, score them with a
// trained matcher, and explain the decisions — including drilling one
// attribute down to token level (the paper's future-work extension).
//
//   ./build/examples/end_to_end_er

#include <iostream>

#include "core/certa_explainer.h"
#include "core/token_explainer.h"
#include "data/benchmarks.h"
#include "data/blocking.h"
#include "explain/report.h"
#include "models/scoring_engine.h"
#include "models/trainer.h"
#include "util/string_utils.h"

int main() {
  // Raw input: two product tables (we reuse the synthetic Walmart-
  // Amazon sources; the labelled pairs are used for training the
  // matcher and for measuring blocking recall only).
  certa::data::Dataset dataset = certa::data::MakeBenchmark("WA");

  // Stage 1 — blocking: candidate generation by IDF-weighted token
  // overlap, instead of scoring all |U| x |V| pairs.
  certa::data::BlockingOptions blocking;
  blocking.max_candidates_per_record = 10;
  auto candidates = certa::data::BlockAll(dataset.left, dataset.right,
                                          blocking);
  double recall = certa::data::BlockingRecall(candidates, dataset.test);
  std::cout << "blocking: " << candidates.size() << " candidates out of "
            << dataset.left.size() * dataset.right.size()
            << " possible pairs; recall on test matches = "
            << certa::FormatDouble(recall, 3) << "\n";

  // Stage 2 — matching: score each candidate with a trained model.
  auto model = certa::models::TrainMatcher(
      certa::models::ModelKind::kDeepMatcher, dataset);
  certa::models::ScoringEngine cached(model.get());
  std::vector<std::pair<int, int>> matches;
  for (const auto& [li, ri] : candidates) {
    if (cached.Predict(dataset.left.record(li), dataset.right.record(ri))) {
      matches.emplace_back(li, ri);
    }
  }
  std::cout << "matching: " << matches.size()
            << " predicted matches among the candidates\n";
  if (matches.empty()) return 0;

  // Stage 3 — explanation: a full CERTA report for the first match.
  certa::explain::ExplainContext context{&cached, &dataset.left,
                                         &dataset.right};
  certa::core::CertaExplainer certa(context);
  const auto& [li, ri] = matches.front();
  const auto& u = dataset.left.record(li);
  const auto& v = dataset.right.record(ri);
  certa::core::CertaResult result = certa.Explain(u, v);
  std::cout << "\n--- explanation report ---\n"
            << certa::explain::RenderReport(
                   u, v, dataset.left.schema(), dataset.right.schema(),
                   cached.Score(u, v), result.saliency,
                   result.counterfactuals);

  // Stage 4 — token drill-down on the most salient attribute.
  certa::explain::AttributeRef top = result.saliency.Ranked().front();
  certa::core::TokenExplainer tokens(context);
  certa::core::TokenExplanation token_explanation =
      tokens.Explain(u, v, top);
  std::cout << "\ntoken-level saliency for "
            << certa::explain::QualifiedAttributeName(
                   dataset.left.schema(), dataset.right.schema(), top)
            << ":\n";
  for (int t : token_explanation.Ranked()) {
    std::cout << "  " << token_explanation.tokens[t] << " = "
              << certa::FormatDouble(token_explanation.scores[t], 3)
              << "\n";
  }
  return 0;
}
