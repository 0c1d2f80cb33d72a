// Quickstart: synthesize an ER benchmark, train a matcher, and explain
// one of its predictions with CERTA — both the saliency scores and the
// counterfactual examples.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <iostream>

#include "core/certa_explainer.h"
#include "data/benchmarks.h"
#include "models/scoring_engine.h"
#include "models/trainer.h"
#include "util/string_utils.h"

int main() {
  // 1. A dataset: two sources plus labelled train/test pairs. Here the
  //    synthetic Abt-Buy benchmark; data::LoadDatasetDirectory() reads
  //    real DeepMatcher-format CSVs instead if you have them.
  certa::data::Dataset dataset = certa::data::MakeBenchmark("AB");
  std::cout << "dataset " << dataset.full_name << ": "
            << dataset.left.size() << " + " << dataset.right.size()
            << " records, " << dataset.train.size() << " train pairs\n";

  // 2. A black-box matcher. Any models::Matcher works; we train the
  //    Ditto stand-in on the train split.
  std::unique_ptr<certa::models::Matcher> model = certa::models::TrainMatcher(
      certa::models::ModelKind::kDitto, dataset);
  std::cout << "trained " << model->name() << ", test F1 = "
            << certa::FormatDouble(
                   certa::models::EvaluateF1(*model, dataset.left,
                                             dataset.right, dataset.test),
                   3)
            << "\n";

  // 3. Wrap the model in a score cache (explanations re-score many
  //    perturbed copies) and build the explainer.
  certa::models::ScoringEngine cached(model.get());
  certa::explain::ExplainContext context{&cached, &dataset.left,
                                         &dataset.right};
  certa::core::CertaExplainer certa(context);

  // 4. Explain the first test pair.
  const certa::data::LabeledPair& pair = dataset.test.front();
  const certa::data::Record& u = dataset.left.record(pair.left_index);
  const certa::data::Record& v = dataset.right.record(pair.right_index);
  double score = cached.Score(u, v);
  std::cout << "\nexplaining <u, v>, model score "
            << certa::FormatDouble(score, 3) << " ("
            << (score >= 0.5 ? "Match" : "Non-Match") << ", label "
            << pair.label << ")\n";

  certa::core::CertaResult result = certa.Explain(u, v);

  std::cout << "\nsaliency (probability of necessity):\n";
  for (const certa::explain::AttributeRef& ref : result.saliency.Ranked()) {
    std::cout << "  "
              << certa::explain::QualifiedAttributeName(
                     dataset.left.schema(), dataset.right.schema(), ref)
              << " = "
              << certa::FormatDouble(result.saliency.score(ref), 3) << "\n";
  }

  std::cout << "\ncounterfactuals: " << result.counterfactuals.size()
            << " examples, sufficiency "
            << certa::FormatDouble(result.best_sufficiency, 2) << "\n";
  if (!result.counterfactuals.empty()) {
    const certa::explain::CounterfactualExample& example =
        result.counterfactuals.front();
    std::cout << "first example flips the score to "
              << certa::FormatDouble(example.score, 3) << " by changing:\n";
    for (const certa::explain::AttributeRef& ref :
         example.changed_attributes) {
      const certa::data::Record& changed =
          ref.side == certa::data::Side::kLeft ? example.left
                                               : example.right;
      std::cout << "  "
                << certa::explain::QualifiedAttributeName(
                       dataset.left.schema(), dataset.right.schema(), ref)
                << " -> \"" << changed.value(ref.index) << "\"\n";
    }
  }
  return 0;
}
