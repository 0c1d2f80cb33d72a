#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "loadgen.h"

namespace certa::e2ebench {

std::string Args::Get(const std::string& key,
                      const std::string& fallback) const {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

long long Args::GetInt(const std::string& key, long long fallback) const {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : std::atoll(it->second.c_str());
}

namespace {

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) return false;
    args->flags[argv[i] + 2] = argv[i + 1];
  }
  return !args->Get("dir").empty();
}

int RunPlan(const Args& args) {
  const Plan plan =
      MakePlan(args.Get("workload"),
               static_cast<uint64_t>(args.GetInt("seed", 1)),
               static_cast<int>(args.GetInt("seconds", 10)),
               args.GetInt("tiny", 0) != 0);
  if (plan.workload.empty()) {
    std::fprintf(stderr, "e2e_loadgen: unknown workload %s\n",
                 args.Get("workload").c_str());
    return 2;
  }
  return WritePlan(args.Get("dir") + "/plan.json", plan) ? 0 : 1;
}

}  // namespace
}  // namespace certa::e2ebench

int main(int argc, char** argv) {
  using namespace certa::e2ebench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_loadgen plan|setup|drive|replay --dir D "
                 "[--flag value ...]\n");
    return 2;
  }
  if (args.mode == "plan") return RunPlan(args);
  if (args.mode == "setup") return RunSetup(args);
  if (args.mode == "drive") return RunDrive(args);
  if (args.mode == "replay") return RunReplay(args);
  std::fprintf(stderr, "e2e_loadgen: unknown mode %s\n", args.mode.c_str());
  return 2;
}
