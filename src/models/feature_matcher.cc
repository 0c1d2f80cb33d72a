#include "models/feature_matcher.h"

#include "util/logging.h"

namespace certa::models {

void FeatureMatcher::Fit(const data::Dataset& dataset, uint64_t seed) {
  CERTA_CHECK(!dataset.train.empty());
  std::vector<RecordPair> pairs;
  std::vector<int> labels;
  pairs.reserve(dataset.train.size());
  labels.reserve(dataset.train.size());
  for (const data::LabeledPair& pair : dataset.train) {
    pairs.push_back({&dataset.left.record(pair.left_index),
                     &dataset.right.record(pair.right_index)});
    labels.push_back(pair.label);
  }
  ScoreMemo memo;
  std::vector<ml::Vector> scaled =
      scaler_.FitTransform(FeaturesBatch(pairs, &memo));
  switch (head_) {
    case Head::kLogistic: {
      ml::LogisticRegression::Options options;
      options.seed = seed;
      logistic_.Fit(scaled, labels, options);
      break;
    }
    case Head::kMlp: {
      ml::Mlp::Options options;
      options.seed = seed;
      mlp_.Fit(scaled, labels, options);
      break;
    }
    case Head::kSvm: {
      ml::LinearSvm::Options options;
      options.seed = seed;
      svm_.Fit(scaled, labels, options);
      break;
    }
  }
  fitted_ = true;
}

double FeatureMatcher::Score(const data::Record& u,
                             const data::Record& v) const {
  CERTA_CHECK(fitted_);
  ml::Vector scaled = scaler_.Transform(Features(u, v));
  switch (head_) {
    case Head::kLogistic:
      return logistic_.PredictProbability(scaled);
    case Head::kMlp:
      return mlp_.PredictProbability(scaled);
    case Head::kSvm:
      return svm_.PredictProbability(scaled);
  }
  return 0.0;
}

std::vector<ml::Vector> FeatureMatcher::FeaturesBatch(
    std::span<const RecordPair> pairs, ScoreMemo* /*memo*/) const {
  std::vector<ml::Vector> rows;
  rows.reserve(pairs.size());
  for (const RecordPair& pair : pairs) {
    rows.push_back(Features(*pair.left, *pair.right));
  }
  return rows;
}

std::vector<double> FeatureMatcher::ScoreBatch(
    std::span<const RecordPair> pairs) const {
  CERTA_CHECK(fitted_);
  ScoreMemo* memo = ScoreMemo::Installed();
  ScoreMemo fresh;
  std::vector<ml::Vector> rows =
      FeaturesBatch(pairs, memo != nullptr ? memo : &fresh);
  for (ml::Vector& row : rows) scaler_.TransformInPlace(&row);
  switch (head_) {
    case Head::kLogistic:
      return logistic_.PredictProbabilityBatch(rows);
    case Head::kMlp:
      return mlp_.PredictProbabilityBatch(rows);
    case Head::kSvm:
      return svm_.PredictProbabilityBatch(rows);
  }
  return std::vector<double>(pairs.size(), 0.0);
}

void FeatureMatcher::SaveParameters(TextArchive* archive) const {
  CERTA_CHECK(fitted_);
  scaler_.Save(archive, "scaler");
  switch (head_) {
    case Head::kLogistic:
      archive->PutString("head", "logistic");
      logistic_.Save(archive, "head.logistic");
      break;
    case Head::kMlp:
      archive->PutString("head", "mlp");
      mlp_.Save(archive, "head.mlp");
      break;
    case Head::kSvm:
      archive->PutString("head", "svm");
      svm_.Save(archive, "head.svm");
      break;
  }
}

bool FeatureMatcher::LoadParameters(const TextArchive& archive) {
  std::string head_name;
  if (!archive.GetString("head", &head_name)) return false;
  if (!scaler_.Load(archive, "scaler")) return false;
  bool loaded = false;
  switch (head_) {
    case Head::kLogistic:
      loaded = head_name == "logistic" &&
               logistic_.Load(archive, "head.logistic");
      break;
    case Head::kMlp:
      loaded = head_name == "mlp" && mlp_.Load(archive, "head.mlp");
      break;
    case Head::kSvm:
      loaded = head_name == "svm" && svm_.Load(archive, "head.svm");
      break;
  }
  fitted_ = loaded;
  return loaded;
}

}  // namespace certa::models
