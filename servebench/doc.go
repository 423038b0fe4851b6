// Command servebench is the end-to-end serving benchmark of the MPQ
// service: it drives a real cmd/mpqserve subprocess over loopback HTTP,
// checks every answer against an in-process serve.Server with the same
// options, and reports what a client of the server sees. A traced run
// also replays the run's fixed prefix in-process, layer by layer, and
// reports per-layer numbers.
//
// Run it from the repository root; run.sh builds mpqserve and the
// benchmark from the checkout first (the build is not timed):
//
//	bash servebench/run.sh --workload picks-hot --seed 1 --seconds 15 --trace 0
//
// Its own test checks that the seed alone determines the replayed
// answers, and that the optimizer work is the same for every seed:
//
//	cd servebench && go test .
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it record
// the environment (nproc, GOMAXPROCS, Go version, seed) and the
// workload-specific detail figures; standard error carries the same
// detail as a table. Any answer that differs from the reference makes
// the run report correct=false and exit 1.
//
// # Workloads
//
// Every workload is a closed loop of one client: it sends its next
// request only after the previous answer arrived. The seed generates
// the request stream over a fixed mix of templates (shapes, sizes and
// catalogs) and the order of prepare-cold's templates; the server
// receives only the generated requests. Seed-drawn catalogs moved
// setup_s and server CPU per request by up to 40% between seeds: one
// catalog can cost a hundred times another of its stratum. The server
// runs with -workers 2.
//
//   - picks-hot: set-up prepares 16 templates (chain, star, cycle and
//     clique; 1 and 2 parameters; 4 to 7 tables; index on; the same
//     catalogs for every seed), one at a time, on a server with
//     -refine-ladder 0.5,0.1: each Prepare carries a deadline, so it
//     takes the anytime path (the coarse
//     generation first) and set-up waits until background refinement
//     has swapped in every template's exact plan set. The client then
//     sends Zipf-skewed (s = 1.1) picks: 70% /pick rotating the
//     frontier, weighted, bound and lex policies, 30% /pickbatch of 64
//     frontier points. The Zipf ranking is re-drawn every 256 requests,
//     so the hot set drifts and every template takes turns at the head.
//     Points are uniform in each plan set's own parameter box. It
//     separates transport from pick logic: the optimizer is idle.
//   - prepare-cold: a fresh server (-donate), warmed up by two fixed
//     templates (chain and star, 2 parameters, 4 tables; the same
//     catalogs for every seed), then a stream of distinct templates
//     (1 parameter with 5 to 8 tables, or 2 parameters with 3 tables,
//     all four shapes), each Prepare followed by one pick per policy
//     and one 64-point batch on the new plan set. The stream comes in
//     rounds of every stratum once; round r has the same catalogs for
//     every seed, and the seed shuffles each round and draws the picks.
//     Time goes to core, geometry, region, pwl and index.Build.
//
// Template sizes stay clear of the heavy tail (1-parameter cliques
// and stars beyond 6 tables, 2-parameter queries beyond 4 tables),
// where one catalog can take tens of seconds. A rare catalog inside the
// range still takes a hundred times its stratum's median (one
// clique-1p-6t catalog took 6.9 s against a 51 ms median); it stays in.
//
// # End-to-end metrics
//
// Every workload reports every metric, so each is defined on each:
//
//   - setup_s: server launch to ready, including the workload's
//     preload (picks-hot's 16 anytime Prepares and their refinement to
//     exact; prepare-cold's two warm-up Prepares); the median of
//     several set-ups per run (3 on picks-hot, 5 on prepare-cold).
//   - pick_p25_us: /pick latency, lower quartile.
//   - pickbatch_p25_ms: 64-point /pickbatch latency, lower quartile.
//   - server_cpu_us_per_request: server utime+stime (/proc/<pid>/stat)
//     over the timed phase, per request. CPU time excludes the time a
//     hypervisor steals, so it swings less than wall time on a shared
//     machine.
//
// The latencies are gated at their lower quartile, not their median:
// on a shared 2-vCPU host the hypervisor stole 0.2% to 44% of the CPU
// per half second, and a stolen slice delays the requests it lands
// on. Over five seeds of picks-hot the pick median moved by 22% with
// the run's steal share, the lower quartile by 11%.
//
// The detail line adds the workload-specific figures: p50, p90 and
// p99; requests, pick points and Prepares per second; the latency of
// the timed phase's Prepares (prepare_cold_p50_ms, prepare-cold) and
// of the set-up Prepares (preload_prepare_p50_ms: on picks-hot the
// time an anytime Prepare takes to its first servable generation);
// CPU per pick point and per Prepare; peak RSS (VmHWM); error_ratio;
// and the hypervisor's steal share during the timed phase. They are
// not gated. Medians and tail latencies move with the host's steal
// share by more than a regression bound could absorb, closed-loop
// throughput with them; RSS grows with the number of plan sets
// prepared in the time budget; and the error ratio depends on the
// request stream the seed draws.
//
// # Correctness
//
// After the timed phase every request is answered again by the
// in-process reference, built with identical options (set-up's
// templates during set-up, outside the timed phase; prepare-cold's
// stream afterwards, since its length depends on speed). Pick answers compare byte for byte with the reference
// encoded the way the server encodes it; Prepare answers compare field
// for field, without duration_ms.
//
// Attempted operations count each batch point as one. An operation
// fails (the result's failed) when its answer did not arrive, differs
// from the reference's, or is a Prepare that did not succeed; the
// workloads have none. A pick point answered with an error or an
// empty frontier, as the reference answers it, is counted apart: the
// detail line's empty_points. At this commit such answers come from
// the Theorem 3 completeness defect (ROADMAP direction 1): at some
// points the plans whose relevance regions contain the point miss a
// Pareto-optimal cost, or no region contains it at all. The detail
// line splits them into completeness failures (uncovered_points) and
// unexplained ones, error_ratio is failed plus empty points over
// attempted ones, and selection.uncovered_point_ratio reports the
// defect per layer; a fix of the defect shows on these figures.
// Points are not moved or filtered to avoid the defect. Bound-policy
// limits are drawn from the reference's unrestricted Pareto front at
// the point, so an infeasible answer can only mean a missing
// Pareto-optimal plan; on prepare-cold, where no plan set exists
// before the Prepare, the limit is unbounded.
//
// # Traced run and per-layer metrics
//
// With --trace 1 the run also replays its fixed, seed-determined
// prefix in-process under a CPU profile. The layer replay calls each
// layer's public functions with a span (name, start, end, parent,
// request id) around every call: core.Optimize, index.Build,
// store.Save, fleet.DirStore Put and Get, store.Load, index.Locate and
// the selection policies. A second replay goes through serve.Server
// Prepare, Pick and PickBatch: after a warm-up pass, each pick runs
// once without spans and once traced, alternating which goes first
// (the difference of the two p50s is trace.overhead_us). The mpqserve
// overheads subtract the untraced in-process p50 from the HTTP p50
// over the same requests: the prefix requests the timed run sent.
// Spans are kept in
// memory and written to spans-<workload>-seed<n>.json in the output
// directory at the end. The deterministic counts (geometry.*,
// core.*_plans, index.leaves, index.avg_leaf_candidates) are the same
// on every run, whatever the seed.
//
// Each per-layer metric and the end-to-end metric it should move, on
// which workload (names in parentheses are detail figures):
//
//	mpqserve.pick_overhead_us          HTTP /pick p50 minus in-process Pick p50  -> pick_p25_us, picks-hot
//	mpqserve.pickbatch_overhead_ms     the same for batches                     -> pickbatch_p25_ms, picks-hot
//	mpqserve.response_bytes_per_point                                           -> pickbatch_p25_ms, picks-hot
//	serve.pick_us, serve.pickbatch_us_per_point                                 -> pick_p25_us, pickbatch_p25_ms, picks-hot
//	serve.queue_wait_ms, serve.admission_wait_ms (Prepare trace phases)         -> setup_s, picks-hot and prepare-cold
//	serve.rejected                                                              -> failed operations, both
//	index.locate_ns, index.avg_leaf_candidates, index.index_pick_ratio          -> pickbatch_p25_ms, server_cpu_us_per_request, picks-hot
//	index.build_ms, index.leaves                                                -> server_cpu_us_per_request, (prepare_cold_p50_ms), prepare-cold
//	selection.frontier_us, selection.weighted_us                                -> pickbatch_p25_ms, picks-hot
//	selection.uncovered_point_ratio                                             -> (error_ratio), picks-hot and prepare-cold
//	core.optimize_ms, core.created_plans, core.final_plans                      -> server_cpu_us_per_request, (prepare_cold_p50_ms), prepare-cold
//	core.pipeline_utilization, core.donated_masks, core.split_jobs              -> (prepares_per_s), prepare-cold
//	geometry.lps, geometry.lp_iterations, geometry.fast_path_lps,
//	geometry.region_diffs                                                       -> server_cpu_us_per_request, (prepare_cold_p50_ms), prepare-cold
//	cpu_share.<package>                self CPU share in the traced replays
//	store.save_us, store.load_us, store.doc_kb                                  -> setup_s, picks-hot; server_cpu_us_per_request, prepare-cold
//	fleet.cache_hit_ratio, fleet.reloads_per_1k_points, fleet.dirstore_get_us   -> pick_p25_us, picks-hot (hits 1, reloads 0 while the population fits the cache)
//	refine.coarse_prepares, refine.swaps, refine.pending_max                    -> setup_s, picks-hot
//	selftime_ms.<layer>                span self time per layer in the replays
//	trace.overhead_us                  traced minus untraced in-process Pick p50
//
// How the layers interact: on picks-hot, optimizer changes should move
// nothing in the timed phase (only setup_s); on prepare-cold, transport
// and index-lookup changes should move nothing.
package main
