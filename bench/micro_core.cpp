// Simulator-transport workload: `micro_core [--json] [--n N --m M --repeats R
// --protocol bfs_flood|ping_all --audit strict|fast --exec
// sequential|parallel --threads T --cap C --faults SPEC --fault-seed S]` runs
// the workload once and prints one BENCH JSON record (see bench/common.h).
// `--json` is accepted and ignored: the record is the only output.
// tools/run_bench.sh drives it — per execution mode and thread count — to
// maintain BENCH_sim.json. Serving, maintenance and the supervised rebuild
// are measured end to end by perfbench/ instead.

#include "common.h"

int main(int argc, char** argv) {
  return ultra::bench::run_sim_transport_json(argc, argv);
}
