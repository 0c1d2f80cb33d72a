#ifndef CERTA_MODELS_TRAINER_H_
#define CERTA_MODELS_TRAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "models/matcher.h"

namespace certa::models {

/// The three affected models of the paper's evaluation (Sect. 5.1).
enum class ModelKind {
  kDeepEr = 0,
  kDeepMatcher = 1,
  kDitto = 2,
  /// Classical linear-SVM matcher (not in the paper's trio; see
  /// SvmModel). Excluded from AllModelKinds so the reproduction benches
  /// match the paper's grids, but available through TrainMatcher.
  kSvm = 3,
};

/// The paper's three evaluated models, in presentation order.
const std::vector<ModelKind>& AllModelKinds();

/// Display name matching the paper's tables.
std::string ModelKindName(ModelKind kind);

/// Trains a fresh matcher of the given kind on `dataset.train`.
std::unique_ptr<Matcher> TrainMatcher(ModelKind kind,
                                      const data::Dataset& dataset,
                                      uint64_t seed = 42);

/// Persists a trained matcher created by TrainMatcher to a text-archive
/// file (model kind + head parameters). False on I/O failure.
bool SaveMatcher(const Matcher& matcher, ModelKind kind,
                 const std::string& path);

/// Restores a matcher saved by SaveMatcher. Returns nullptr (and leaves
/// `kind` untouched) on unreadable/corrupt files.
std::unique_ptr<Matcher> LoadMatcher(const std::string& path,
                                     ModelKind* kind);

/// F1 of hard predictions over a labelled pair set.
double EvaluateF1(const Matcher& matcher, const data::Table& left,
                  const data::Table& right,
                  const std::vector<data::LabeledPair>& pairs);

}  // namespace certa::models

#endif  // CERTA_MODELS_TRAINER_H_
