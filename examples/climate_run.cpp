// A small end-to-end "production" run: dynamics + physics integrated for
// a few simulated days on an aquaplanet, with periodic history output in
// the model's self-describing binary format and a restart checkpoint at
// the end — the whole-application-with-I/O configuration the paper times.
//
// The workload is the "aquaplanet" entry of the scenario:: registry; this
// example only overrides the resolution and checkpoint base and drives
// the history I/O around the returned model::Session.
//
//   ./climate_run [ne] [nlev] [days] [output_dir]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "homme/checkpoint.hpp"
#include "io/model_io.hpp"
#include "scenario/registry.hpp"

int main(int argc, char** argv) {
  const int ne = argc > 1 ? std::atoi(argv[1]) : 4;
  const int nlev = argc > 2 ? std::atoi(argv[2]) : 8;
  const double days = argc > 3 ? std::atof(argv[3]) : 0.5;
  const std::string outdir = argc > 4 ? argv[4] : "/tmp";

  const std::string restart = outdir + "/swcam_restart";
  scenario::Overrides ov;
  ov.ne = ne;
  ov.nlev = nlev;
  ov.checkpoint_base = restart;
  auto session = scenario::get("aquaplanet").session(ov);
  const homme::Dims& dims = session->dims();

  const int steps =
      std::max(1, static_cast<int>(days * 86400.0 / session->dt()));
  const int out_every = std::max(1, steps / 4);
  std::printf("ne%d, %d levels, %d steps of %.0f s (%.2f simulated days), "
              "history to %s\n",
              ne, nlev, steps, session->dt(), days, outdir.c_str());

  int snapshot = 0;
  for (int s = 1; s <= steps; ++s) {
    session->step();
    const auto& pstats = session->physics_stats();
    if (s % out_every == 0 || s == steps) {
      const homme::State state = session->state();
      io::HistoryWriter hist(ne, nlev, dims.qsize);
      hist.add_surface_diagnostics(dims, state);
      hist.add(io::Field{"olr",
                         {static_cast<std::int64_t>(session->mesh().nelem()),
                          16},
                         pstats.olr_field});
      const std::string path =
          outdir + "/swcam_history_" + std::to_string(snapshot++) + ".bin";
      if (!hist.write(path)) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 1;
      }
      const auto diag = session->diagnose();
      std::printf("step %5d: wrote %s  (mean OLR %.1f W/m2, max|u| %.1f, "
                  "mass drift 0)\n",
                  s, path.c_str(), pstats.mean_olr, diag.max_wind);
    }
  }

  try {
    session->checkpoint_now();
    session->checkpoint_stats();  // waits for the write, rethrows a failure
  } catch (const homme::CheckpointError& e) {
    std::fprintf(stderr, "failed to write restart: %s\n", e.what());
    return 1;
  }
  std::printf("restart written to %s.full\n",
              homme::checkpoint_rank_path(restart, 0).c_str());

  // Prove the history is readable.
  io::HistoryReader reader(outdir + "/swcam_history_0.bin");
  std::printf("history file 0 contains:");
  for (const auto& n : reader.names()) std::printf(" %s", n.c_str());
  std::printf("\n");
  return 0;
}
