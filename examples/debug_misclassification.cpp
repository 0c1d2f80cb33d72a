// The paper's motivating workflow (Sect. 1): a model misclassifies some
// pairs; explanations tell you *why*, and applying the explanation back
// to the input verifies which method is faithful. This example finds
// wrong predictions on the synthetic Amazon-Google benchmark (a hard
// one), compares CERTA with Mojito/LandMark/SHAP on them, and measures
// how much each explanation actually moves the score.
//
//   ./build/examples/debug_misclassification

#include <iostream>

#include "core/certa_explainer.h"
#include "data/benchmarks.h"
#include "explain/landmark.h"
#include "explain/mojito.h"
#include "explain/shap.h"
#include "models/scoring_engine.h"
#include "models/trainer.h"
#include "util/string_utils.h"
#include "util/table_printer.h"

namespace {

/// Applies a saliency explanation the way Fig. 4 does: copy the top-2
/// salient attribute values across the pair (making it more similar)
/// and report the new score.
double ApplyExplanation(const certa::models::Matcher& model,
                        const certa::data::Record& u,
                        const certa::data::Record& v,
                        const certa::explain::SaliencyExplanation& expl) {
  certa::data::Record mu = u;
  certa::data::Record mv = v;
  std::vector<certa::explain::AttributeRef> ranked = expl.Ranked();
  for (size_t k = 0; k < ranked.size() && k < 2; ++k) {
    const certa::explain::AttributeRef& ref = ranked[k];
    if (ref.side == certa::data::Side::kLeft) {
      if (static_cast<size_t>(ref.index) < mv.values.size()) {
        mv.values[ref.index] = mu.values[ref.index];
      }
    } else if (static_cast<size_t>(ref.index) < mu.values.size()) {
      mu.values[ref.index] = mv.values[ref.index];
    }
  }
  return model.Score(mu, mv);
}

}  // namespace

int main() {
  certa::data::Dataset dataset = certa::data::MakeBenchmark("AG");
  auto model = certa::models::TrainMatcher(
      certa::models::ModelKind::kDeepMatcher, dataset);
  certa::models::ScoringEngine cached(model.get());
  certa::explain::ExplainContext context{&cached, &dataset.left,
                                         &dataset.right};

  // Collect the false negatives: true matches the model rejects.
  std::vector<const certa::data::LabeledPair*> wrong;
  for (const auto& pair : dataset.test) {
    const auto& u = dataset.left.record(pair.left_index);
    const auto& v = dataset.right.record(pair.right_index);
    if (pair.label == 1 && !cached.Predict(u, v)) wrong.push_back(&pair);
    if (wrong.size() >= 3) break;
  }
  std::cout << "found " << wrong.size()
            << " false negatives on AG with " << model->name() << "\n";
  if (wrong.empty()) return 0;

  certa::core::CertaExplainer certa(context);
  certa::explain::MojitoExplainer mojito(context);
  certa::explain::LandmarkExplainer landmark(context);
  certa::explain::ShapExplainer shap(context);
  std::vector<certa::explain::SaliencyExplainer*> methods = {
      &certa, &mojito, &landmark, &shap};

  certa::TablePrinter table({"Pair", "Original", "CERTA", "Mojito",
                             "LandMark", "SHAP"});
  for (size_t w = 0; w < wrong.size(); ++w) {
    const auto& u = dataset.left.record(wrong[w]->left_index);
    const auto& v = dataset.right.record(wrong[w]->right_index);
    std::vector<std::string> row = {
        "fn " + std::to_string(w + 1),
        certa::FormatDouble(cached.Score(u, v), 3)};
    for (certa::explain::SaliencyExplainer* method : methods) {
      double moved =
          ApplyExplanation(cached, u, v, method->ExplainSaliency(u, v));
      row.push_back(certa::FormatDouble(moved, 3));
    }
    table.AddRow(row);

    // Show what CERTA blames, in plain words.
    certa::explain::SaliencyExplanation expl = certa.ExplainSaliency(u, v);
    auto top = expl.Ranked().front();
    std::cout << "fn " << w + 1 << ": most necessary attribute is "
              << certa::explain::QualifiedAttributeName(
                     dataset.left.schema(), dataset.right.schema(), top)
              << " (phi = " << certa::FormatDouble(expl.score(top), 3)
              << ")\n";
  }
  std::cout << "\nscore after copying each method's top-2 salient "
               "attributes across the pair\n(faithful explanations push "
               "the false negative back toward Match):\n";
  table.Print(std::cout);
  return 0;
}
