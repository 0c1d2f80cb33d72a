#include "models/trainer.h"

#include "ml/metrics.h"
#include "models/deeper_model.h"
#include "models/deepmatcher_model.h"
#include "models/ditto_model.h"
#include "models/svm_model.h"
#include "util/archive.h"
#include "util/logging.h"

namespace certa::models {

const std::vector<ModelKind>& AllModelKinds() {
  static const auto& kinds = *new std::vector<ModelKind>{
      ModelKind::kDeepEr, ModelKind::kDeepMatcher, ModelKind::kDitto};
  return kinds;
}

std::string ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kDeepEr:
      return "DeepER";
    case ModelKind::kDeepMatcher:
      return "DeepMatcher";
    case ModelKind::kDitto:
      return "Ditto";
    case ModelKind::kSvm:
      return "SVM";
  }
  return "?";
}

std::unique_ptr<Matcher> TrainMatcher(ModelKind kind,
                                      const data::Dataset& dataset,
                                      uint64_t seed) {
  std::unique_ptr<FeatureMatcher> model;
  switch (kind) {
    case ModelKind::kDeepEr:
      model = std::make_unique<DeepErModel>();
      break;
    case ModelKind::kDeepMatcher:
      model = std::make_unique<DeepMatcherModel>();
      break;
    case ModelKind::kDitto:
      model = std::make_unique<DittoModel>();
      break;
    case ModelKind::kSvm:
      model = std::make_unique<SvmModel>();
      break;
  }
  CERTA_CHECK(model != nullptr);
  model->Fit(dataset, seed);
  return model;
}

namespace {

std::unique_ptr<FeatureMatcher> MakeEmpty(ModelKind kind) {
  switch (kind) {
    case ModelKind::kDeepEr:
      return std::make_unique<DeepErModel>();
    case ModelKind::kDeepMatcher:
      return std::make_unique<DeepMatcherModel>();
    case ModelKind::kDitto:
      return std::make_unique<DittoModel>();
    case ModelKind::kSvm:
      return std::make_unique<SvmModel>();
  }
  return nullptr;
}

}  // namespace

bool SaveMatcher(const Matcher& matcher, ModelKind kind,
                 const std::string& path) {
  const auto* feature_matcher =
      dynamic_cast<const FeatureMatcher*>(&matcher);
  CERTA_CHECK(feature_matcher != nullptr)
      << "SaveMatcher supports TrainMatcher-produced models";
  TextArchive archive;
  archive.PutString("format", "certa-matcher-v1");
  archive.PutInt("kind", static_cast<long long>(kind));
  feature_matcher->SaveParameters(&archive);
  return archive.SaveToFile(path);
}

std::unique_ptr<Matcher> LoadMatcher(const std::string& path,
                                     ModelKind* kind) {
  TextArchive archive;
  if (!TextArchive::LoadFromFile(path, &archive)) return nullptr;
  std::string format;
  if (!archive.GetString("format", &format) ||
      format != "certa-matcher-v1") {
    return nullptr;
  }
  long long kind_value = 0;
  if (!archive.GetInt("kind", &kind_value) || kind_value < 0 ||
      kind_value > static_cast<long long>(ModelKind::kSvm)) {
    return nullptr;
  }
  ModelKind loaded_kind = static_cast<ModelKind>(kind_value);
  std::unique_ptr<FeatureMatcher> model = MakeEmpty(loaded_kind);
  if (model == nullptr || !model->LoadParameters(archive)) return nullptr;
  if (kind != nullptr) *kind = loaded_kind;
  return model;
}

double EvaluateF1(const Matcher& matcher, const data::Table& left,
                  const data::Table& right,
                  const std::vector<data::LabeledPair>& pairs) {
  std::vector<int> labels;
  std::vector<int> predictions;
  labels.reserve(pairs.size());
  predictions.reserve(pairs.size());
  for (const data::LabeledPair& pair : pairs) {
    labels.push_back(pair.label);
    predictions.push_back(matcher.Predict(left.record(pair.left_index),
                                          right.record(pair.right_index))
                              ? 1
                              : 0);
  }
  return ml::F1Score(labels, predictions);
}

}  // namespace certa::models
