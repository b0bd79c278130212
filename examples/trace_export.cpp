// Example: export a simulated run as a Chrome trace.
//
// Runs the quickstart scenario with SSR and writes ssr_trace.json; open it
// in chrome://tracing or https://ui.perfetto.dev.  Each slot is a track;
// you can see the reservation gap on the freed slot between the workflow's
// two phases, and the batch job starting only after the workflow finishes.
//
//   $ ./example_trace_export && ls ssr_trace.json
#include <fstream>
#include <iostream>
#include <memory>

#include "ssr/core/reservation_manager.h"
#include "ssr/metrics/trace_capture.h"
#include "ssr/metrics/trace_export.h"
#include "ssr/sched/engine.h"

using namespace ssr;

int main() {
  Engine engine(SchedConfig{}, 2, 2, 42);
  engine.set_reservation_hook(
      std::make_unique<ReservationManager>(SsrConfig{}));
  // The engine's event stream, fanned out to the exporter (a replayed
  // capture would feed the same exporter through TraceReplayer::replay).
  TraceFanOut stream;
  TraceExporter trace;
  stream.attach(trace);
  engine.add_observer(&stream);

  engine.submit(JobBuilder("workflow")
                    .priority(10)
                    .stage(4, uniform_duration(4.0, 9.0))
                    .stage(4, uniform_duration(4.0, 9.0))
                    .stage(4, uniform_duration(4.0, 9.0))
                    .build());
  engine.submit(JobBuilder("batch")
                    .priority(0)
                    .submit_at(1.0)
                    .stage(8, uniform_duration(15.0, 30.0))
                    .build());
  engine.run();

  std::ofstream out("ssr_trace.json");
  trace.write_json(out);
  std::cout << "Wrote ssr_trace.json with " << trace.event_count()
            << " task events.\nOpen it in chrome://tracing or "
               "https://ui.perfetto.dev — slot tracks show the reservation\n"
               "gaps between the workflow's phases.\n";
  return 0;
}
