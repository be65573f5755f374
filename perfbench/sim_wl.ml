(* The sim-residence workload: the residence-pareto scenario (64 users
   on an 8x8 hex grid, semi-Markov motion under a Pareto(1.6) dwell law
   matched to a 6-tick mean) with its duration scaled so that one
   Sim.run lasts a few seconds. The scenario build, which fits the
   Pareto law by bisection, is the set-up and stays in setup_s. *)

open Cellsim

let duration_scale = 8.0
let min_runs = 2
let alpha = 1.6
let mean_dwell = 6.0
let now = Unix.gettimeofday

let scheme_key = function
  | Sim.Blanket -> "blanket"
  | Sim.Selective _ -> "selective"
  | Sim.Selective_aged _ -> "aged"
  | Sim.Selective_robust _ -> "robust"
  | s -> Sim.scheme_to_string s

(* What must repeat exactly across runs of one seed. *)
let fingerprint (r : Sim.result) =
  ( r.Sim.total_calls,
    List.map (fun (s : Sim.scheme_metrics) -> (scheme_key s.Sim.scheme, s.Sim.cells_paged))
      r.Sim.per_scheme )

let run ~seed ~seconds ~trace =
  let base, setup_ms =
    Span.time ~name:"scenario.build" (fun () -> Scenario.residence_pareto ~seed ())
  in
  let cfg = { base with Sim.duration = base.Sim.duration *. duration_scale } in
  let obs = Obs.Metrics.default in
  if trace then begin
    Obs.Metrics.reset obs;
    Obs.Metrics.set_enabled obs true
  end;
  let runs = ref [] in
  let t_start = now () in
  let until = t_start +. float_of_int seconds in
  while List.length !runs < min_runs || now () < until do
    let rid = List.length !runs in
    let r, ms = Span.time ~rid ~name:"sim.run" (fun () -> Sim.run cfg) in
    runs := (r, ms) :: !runs
  done;
  Obs.Metrics.set_enabled obs false;
  let runs = List.rev !runs in
  let n = List.length runs in
  let first_r = fst (List.hd runs) in
  let later = List.map snd (List.tl runs) in
  let walls = List.map snd runs in
  let calls = first_r.Sim.total_calls in
  let fp = fingerprint first_r in
  let mismatched = List.length (List.filter (fun (r, _) -> fingerprint r <> fp) runs) in
  let per_run_rate = List.map (fun (r, ms) -> float_of_int r.Sim.total_calls /. (ms /. 1000.0)) runs in
  let total_calls = List.fold_left (fun a (r, _) -> a + r.Sim.total_calls) 0 runs in
  let e2e =
    [
      Report.metric "setup_s" ~unit_:"s" ~samples:1 (setup_ms /. 1000.0);
      Report.metric "latency_p50_ms" ~unit_:"ms" ~samples:n (Stats.median_of walls);
      Report.metric "latency_p99_ms" ~unit_:"ms" ~samples:n (Stats.p99_of walls);
      Report.metric "goodput" ~unit_:"share" ~samples:n (Stats.share (n - mismatched) n);
      Report.metric "overload_rps" ~unit_:"req/s" ~samples:n
        (float_of_int total_calls /. (Stats.sum walls /. 1000.0));
      Report.metric "solve_ms" ~unit_:"ms" ~samples:n
        (Stats.median_of (List.map (fun (r, ms) -> ms /. float_of_int r.Sim.total_calls) runs));
      Report.metric "resolve_ms" ~unit_:"ms" ~samples:(n - 1) (Stats.median_of later);
      Report.metric "calls_per_s" ~unit_:"calls/s" ~samples:n (Stats.median_of per_run_rate);
      Report.metric "peak_rss_mb" ~unit_:"MB" ~samples:1 (Report.peak_rss_mb (Unix.getpid ()));
      Report.metric "failed_share" ~unit_:"share" ~samples:n (Stats.share mismatched n);
    ]
  in
  let checks =
    [
      Report.check "per-scheme cells_paged and total_calls identical across runs"
        (mismatched = 0)
        (Printf.sprintf "%d runs, %d calls each, %d differ" n calls mismatched);
    ]
  in
  let layers, extra_checks =
    if not trace then ([], [])
    else begin
      let per_run name = float_of_int (Obs.Metrics.counter_value obs name) /. float_of_int n in
      let counts_ok = Obs.Metrics.counter_value obs "sim_calls" = total_calls in
      (* The tracing cost: runs with the Obs registry on against runs
         with it off, same config. *)
      let off = List.init min_runs (fun _ -> snd (Span.time ~name:"sim.run.untraced" (fun () -> Sim.run cfg))) in
      let schemes =
        List.map
          (fun s ->
            let _, ms =
              Span.time ~name:("sim.scheme." ^ scheme_key s) (fun () ->
                  Sim.run { cfg with Sim.schemes = [ s ] })
            in
            Report.metric ("sim.scheme_ms." ^ scheme_key s) ~unit_:"ms" ~samples:1 ms)
          cfg.Sim.schemes
      in
      let law, pareto_ms =
        Span.time ~name:"mobility.pareto_with_mean" (fun () ->
            Mobility.pareto_with_mean ~alpha ~mean:mean_dwell)
      in
      let means =
        List.init 3 (fun _ -> snd (Span.time ~name:"mobility.residence_mean" (fun () -> Mobility.residence_mean law)))
      in
      ( [
          Report.metric "scenario.build_ms" ~unit_:"ms" ~samples:1 setup_ms;
          Report.metric "mobility.pareto_with_mean_ms" ~unit_:"ms" ~samples:1 pareto_ms;
          Report.metric "mobility.residence_mean_ms" ~unit_:"ms" ~samples:3 (Stats.median_of means);
          Report.metric "sim.run_ms" ~unit_:"ms" ~samples:n (Stats.median_of walls);
        ]
        @ schemes
        @ [
            Report.metric "sim.calls" ~unit_:"count" ~samples:n (per_run "sim_calls");
            Report.metric "sim.moves" ~unit_:"count" ~samples:n (per_run "sim_moves");
            Report.metric "sim.polls" ~unit_:"count" ~samples:n (per_run "sim_polls");
            Report.metric "sim.reports" ~unit_:"count" ~samples:n (per_run "sim_reports");
            Report.metric "obs.overhead_share" ~unit_:"share" ~samples:(n + min_runs)
              ((Stats.median_of walls /. Stats.median_of off) -. 1.0);
          ],
        [
          Report.check "Obs sim_calls counter = Sim.run total_calls" counts_ok
            (Printf.sprintf "counter %d, results %d"
               (Obs.Metrics.counter_value obs "sim_calls") total_calls);
        ] )
    end
  in
  let accounting =
    match layers with
    | [] -> []
    | _ ->
      let v name = (List.find (fun m -> m.Report.name = name) layers).Report.value in
      let schemes = [ "blanket"; "selective"; "aged"; "robust" ] in
      let parts = List.map (fun k -> (k, v ("sim.scheme_ms." ^ k))) schemes in
      let total = v "sim.run_ms" in
      [
        Printf.sprintf "accounting: Sim.run %.0f ms (Obs on); one scheme alone: %s; sum %.0f ms = %.0f%% of the run"
          total
          (String.concat ", "
             (List.map (fun (k, ms) -> Printf.sprintf "%s %.0f ms (%.0f%%)" k ms (100.0 *. ms /. total)) parts))
          (Stats.sum (List.map snd parts))
          (100.0 *. Stats.sum (List.map snd parts) /. total);
      ]
  in
  {
    Report.attempted = n;
    failed = mismatched;
    e2e;
    layers;
    checks = checks @ extra_checks;
    notes =
      [
        Printf.sprintf "scenario residence-pareto seed %d, duration x%.0f = %.0f ticks: %d runs of %d calls"
          seed duration_scale cfg.Sim.duration n calls;
      ]
      @ accounting;
  }
