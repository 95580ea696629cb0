// sb_run: command-line driver for single pruning experiments.
//
//   ./sb_run --arch resnet-56 --strategy global-gradient --ratio 8 \
//            --dataset synth-cifar10 --seed 3 --schedule iterative --steps 3
//
// Prints the model summary, runs the full pretrain(cached) -> prune ->
// fine-tune pipeline, and reports every §6 metric plus the Appendix B
// best-practice checklist for the run.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/checklist.hpp"
#include "core/experiment.hpp"
#include "metrics/summary.hpp"
#include "obs/telemetry.hpp"

using namespace shrinkbench;

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n", argv0);
  std::printf(
      "  --dataset NAME     synth-cifar10 | synth-imagenet | synth-mnist (default synth-cifar10)\n"
      "  --arch NAME        lenet-300-100 | lenet-5 | cifar-vgg | resnet-20/56/110 | resnet-18\n"
      "  --width N          base width override (0 = architecture default)\n"
      "  --strategy NAME    one of:");
  for (const auto& name : strategy_names()) std::printf(" %s", name.c_str());
  std::printf(
      "\n"
      "  --ratio R          target compression ratio (default 4)\n"
      "  --schedule NAME    one-shot | iterative | polynomial (default one-shot)\n"
      "  --steps N          pruning rounds for iterative/polynomial (default 3)\n"
      "  --seed N           run seed (default 1)\n"
      "  --seeds A,B,...    run a mini-sweep over these seeds instead of one run\n"
      "  --csv PATH         (with --seeds) stream rows to PATH and write the run\n"
      "                     manifest next to it (PATH with .manifest.json)\n"
      "  --epochs N         fine-tune epochs (default 10)\n"
      "  --pretrain-epochs N  pretraining epochs (default 60; cached per config)\n"
      "  --prune-classifier include the classifier layer (off by default)\n"
      "  --cache DIR        pretrained/result cache (default .sb_cache)\n"
      "\n"
      "crash safety: interrupted runs resume from training checkpoints under\n"
      "<cache>/ckpt (see SB_CKPT_DIR / SB_CKPT_EVERY in EXPERIMENTS.md)\n");
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentConfig cfg;
  cfg.finetune.epochs = 10;
  cfg.finetune.patience = 4;
  std::string cache = default_cache_dir();
  std::vector<uint64_t> seeds;
  std::string csv_path;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (a == "--dataset") {
      cfg.dataset = next();
    } else if (a == "--arch") {
      cfg.arch = next();
    } else if (a == "--width") {
      cfg.width = std::atoll(next().c_str());
    } else if (a == "--strategy") {
      cfg.strategy = next();
    } else if (a == "--ratio") {
      cfg.target_compression = std::atof(next().c_str());
    } else if (a == "--schedule") {
      cfg.schedule = schedule_from_name(next());
    } else if (a == "--steps") {
      cfg.schedule_steps = std::atoi(next().c_str());
    } else if (a == "--seed") {
      cfg.run_seed = static_cast<uint64_t>(std::atoll(next().c_str()));
    } else if (a == "--seeds") {
      std::string list = next();
      seeds.clear();
      for (size_t pos = 0; pos < list.size();) {
        const size_t comma = list.find(',', pos);
        const std::string tok = list.substr(pos, comma == std::string::npos ? comma : comma - pos);
        if (!tok.empty()) seeds.push_back(static_cast<uint64_t>(std::atoll(tok.c_str())));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (a == "--csv") {
      csv_path = next();
    } else if (a == "--epochs") {
      cfg.finetune.epochs = std::atoi(next().c_str());
    } else if (a == "--pretrain-epochs") {
      cfg.pretrain.epochs = std::atoi(next().c_str());
    } else if (a == "--prune-classifier") {
      cfg.prune.include_classifier = true;
    } else if (a == "--cache") {
      cache = next();
    } else {
      usage(argv[0]);
      return a == "--help" ? 0 : 1;
    }
  }
  if (cfg.dataset == "synth-imagenet") cfg.finetune = imagenet_finetune_options();

  // Both modes build the runner inside their try: a bad --cache (say, a
  // path under a regular file) is reported as an error, not a crash.

  // Mini-sweep mode: one strategy/ratio across several seeds through the
  // real run_sweep path (heartbeat, incremental CSV, manifest) — the
  // smallest end-to-end exercise of the sweep observability surface.
  if (!seeds.empty()) {
    SweepOptions opts;
    opts.csv_path = csv_path;
    SweepSummary sum;
    std::vector<ExperimentResult> results;
    try {
      ExperimentRunner runner(cache);
      results = run_sweep(runner, cfg, {cfg.strategy}, {cfg.target_compression}, seeds, opts,
                          &sum);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sb_run: sweep failed: %s\n", e.what());
      return 1;
    }
    if (!csv_path.empty()) {
      std::string manifest = csv_path;
      if (manifest.size() > 4 && manifest.rfind(".csv") == manifest.size() - 4) {
        manifest.erase(manifest.size() - 4);
      }
      manifest += ".manifest.json";
      write_run_manifest(manifest, "sb_run.sweep", results);
      std::printf("manifest: %s\n", manifest.c_str());
    }
    for (const ExperimentResult& r : results) {
      std::printf("seed=%llu  %s  top1 %.4f -> %.4f  compression %.2fx\n",
                  static_cast<unsigned long long>(r.config.run_seed),
                  r.failed ? "FAILED" : "ok", r.pre_top1, r.post_top1, r.compression);
    }
    std::printf("sweep: %zu/%zu completed, %zu failures, %zu cache hits%s\n", sum.completed,
                sum.total, sum.failures, sum.cache_hits,
                sum.interrupted ? " (interrupted)" : "");
    return sum.failures == 0 && !sum.interrupted ? 0 : 1;
  }


  ExperimentResult r;
  try {
    // Heartbeat for single runs too: the board/sampler start lazily on
    // the first status call, and the bookend writes guarantee the file
    // exists even when the run finishes inside one sampler period.
    obs::status_set_phase("run");
    obs::status_set_progress(0, 1, -1.0);
    obs::write_status_now();
    ExperimentRunner runner(cache);
    ModelPtr model = runner.pretrained(cfg);
    const DatasetBundle& data = runner.dataset(cfg.dataset, cfg.data_seed);
    std::printf("%s\n", describe(*model, data.train.sample_shape()).c_str());
    r = runner.run(cfg);
    obs::status_set_phase("done");
    obs::status_set_progress(1, 1, 0.0);
    obs::write_status_now();
  } catch (const std::exception& e) {
    // A crash (or injected fault) exits non-zero; rerunning resumes from
    // the result cache and the training checkpoints under <cache>/ckpt.
    std::fprintf(stderr, "sb_run: %s\n", e.what());
    return 1;
  }
  std::printf("dataset=%s arch=%s strategy=%s schedule=%s ratio=%.1f seed=%llu\n",
              cfg.dataset.c_str(), cfg.arch.c_str(), cfg.strategy.c_str(),
              to_string(cfg.schedule).c_str(), cfg.target_compression,
              static_cast<unsigned long long>(cfg.run_seed));
  std::printf("  control:  top1 %.4f  top5 %.4f\n", r.pre_top1, r.pre_top5);
  std::printf("  pruned:   top1 %.4f  top5 %.4f\n", r.post_top1, r.post_top5);
  std::printf("  compression %.2fx  speedup %.2fx  (%lld -> %lld params)\n", r.compression,
              r.speedup, static_cast<long long>(r.params_total),
              static_cast<long long>(r.params_nonzero));
  std::printf("  fine-tune epochs %d, wall time %.1fs\n\n", r.finetune_epochs, r.seconds);

  std::printf("%s", render_checklist(evaluate_checklist({r}, cfg.strategy)).c_str());
  std::printf("(single runs fail most checklist items by construction — sweep strategies,\n"
              "ratios, and seeds with the bench binaries to satisfy them)\n");
  return 0;
}
