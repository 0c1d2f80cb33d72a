// Explain the same prediction under all three ER models. Record-level
// models (DeepER) spread necessity across attributes — the model cannot
// tell which attribute a token came from — while attribute-level models
// (DeepMatcher) concentrate it, and sequence models with attribute
// markers (Ditto) sit in between. This mirrors the paper's discussion
// of why attribute-level explanations fit how each architecture reads
// its input.
//
//   ./build/examples/model_comparison

#include <iostream>

#include "core/certa_explainer.h"
#include "data/benchmarks.h"
#include "models/scoring_engine.h"
#include "models/trainer.h"
#include "util/string_utils.h"
#include "util/table_printer.h"

int main() {
  certa::data::Dataset dataset = certa::data::MakeBenchmark("WA");

  // One true match explained under every model.
  const certa::data::LabeledPair* pair = nullptr;
  for (const auto& candidate : dataset.test) {
    if (candidate.label == 1) {
      pair = &candidate;
      break;
    }
  }
  if (pair == nullptr) {
    std::cout << "no match in the WA test split\n";
    return 0;
  }
  const auto& u = dataset.left.record(pair->left_index);
  const auto& v = dataset.right.record(pair->right_index);

  std::cout << "pair (true match) on " << dataset.full_name << ":\n";
  for (int a = 0; a < dataset.left.schema().size(); ++a) {
    std::cout << "  L_" << dataset.left.schema().name(a) << " = "
              << u.value(a) << "\n";
  }
  for (int a = 0; a < dataset.right.schema().size(); ++a) {
    std::cout << "  R_" << dataset.right.schema().name(a) << " = "
              << v.value(a) << "\n";
  }

  std::vector<std::string> header = {"Model", "score"};
  for (int a = 0; a < dataset.left.schema().size(); ++a) {
    header.push_back("L_" + dataset.left.schema().name(a));
  }
  for (int a = 0; a < dataset.right.schema().size(); ++a) {
    header.push_back("R_" + dataset.right.schema().name(a));
  }
  certa::TablePrinter table(header);

  for (certa::models::ModelKind kind : certa::models::AllModelKinds()) {
    auto model = certa::models::TrainMatcher(kind, dataset);
    certa::models::ScoringEngine cached(model.get());
    certa::explain::ExplainContext context{&cached, &dataset.left,
                                           &dataset.right};
    certa::core::CertaExplainer explainer(context);
    certa::core::CertaResult result = explainer.Explain(u, v);
    std::vector<std::string> row = {
        model->name(), certa::FormatDouble(cached.Score(u, v), 3)};
    for (double score : result.saliency.Flattened()) {
      row.push_back(certa::FormatDouble(score, 3));
    }
    table.AddRow(row);
  }
  std::cout << "\nCERTA saliency (probability of necessity) per model:\n";
  table.Print(std::cout);
  return 0;
}
