(* The metro workload: in-process metropolitan-scale coarse solving.
   Fresh, content-distinct instances go through Instance.create ->
   Flat.prepare_coarse -> Flat.run_coarse, each on a cold arena or on
   one shared warm arena where it is then re-solved. No serve or wire
   work. *)

open Confcall

let m = 500
let c = 50_000
let d = 8
let block = 256
let cold_every = 3
let min_cold = 3
let min_fresh = 5
let resolves_per_instance = 150
let now = Unix.gettimeofday

(* Each row is the Zipf(1.2) law under its own affine cell permutation
   j -> (a*j + b) mod c, with a coprime to c and a, b drawn from the
   seeded stream: no two instances share content, and drawing one costs
   a few tens of milliseconds instead of a full shuffle per row. *)
let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let rows rng zipf =
  Array.init m (fun _ ->
      let rec coprime () =
        let a = 1 + Prob.Rng.int rng (c - 1) in
        if gcd a c = 1 then a else coprime ()
      in
      let a = coprime () and b = Prob.Rng.int rng c in
      Array.init c (fun j -> zipf.(((a * j) + b) mod c)))

(* Flat.ep against the legacy evaluation of the coarse strategy. *)
let ep_check arena inst =
  let r = Flat.coarse ~block arena inst in
  let legacy = Strategy.expected_paging inst r.Order_dp.strategy in
  Float.abs (Flat.ep arena -. legacy) <= 1e-12 *. float_of_int c

let run ~seed ~seconds ~trace =
  let t_start = now () in
  let rng = Prob.Rng.create ~seed in
  let zipf = Prob.Dist.zipf ~s:1.2 c in
  let ep_failures = ref 0 in
  let arena = Flat.create () in
  let setup = ref [] and solve_ms = ref [] and resolve_ms = ref [] in
  let resolve_s = ref 0.0 and last = ref None and k = ref 0 in
  let until = t_start +. float_of_int seconds in
  (* Instances keep coming until the run's seconds are used: every
     [cold_every]-th goes onto a cold arena and is a set-up sample
     (create + prepare_coarse); the others go through the shared warm
     arena (create + prepare_coarse + run_coarse) and are then re-solved
     [resolves_per_instance] times. Interleaving spreads every kind of
     sample over the whole run, so that one burst of a noisy neighbour
     cannot decide a median. The row arrays are the benchmark's input and
     are drawn outside the timed spans. *)
  while
    List.length !setup < min_cold || List.length !solve_ms < min_fresh || now () < until
  do
    let p = rows rng zipf in
    Gc.full_major ();
    let rid = !k in
    incr k;
    if rid mod cold_every = 0 then begin
      let t0 = now () in
      let inst = Instance.create ~d p in
      Flat.prepare_coarse ~block (Flat.create ()) inst;
      setup := (now () -. t0) :: !setup
    end
    else begin
      let t0 = now () in
      let inst, _ = Span.time ~rid ~name:"instance.create" (fun () -> Instance.create ~d p) in
      ignore
        (Span.time ~rid ~name:"flat.prepare_coarse" (fun () ->
             Flat.prepare_coarse ~block arena inst));
      ignore (Span.time ~rid ~name:"flat.run_coarse" (fun () -> Flat.run_coarse arena));
      (* The fresh solve pays the major collection of the garbage it
         made (create and prepare_coarse), so that preparation which
         allocates more shows here; settling it also keeps collector
         slices out of the timed re-solves. *)
      Gc.full_major ();
      let t1 = now () in
      ignore (Span.add ~rid ~name:"metro.solve" ~start_s:t0 ~stop_s:t1 ());
      solve_ms := ((t1 -. t0) *. 1000.0) :: !solve_ms;
      let ep = Flat.ep arena in
      let t2 = now () in
      for _ = 1 to resolves_per_instance do
        let t = now () in
        Flat.run_coarse arena;
        resolve_ms := ((now () -. t) *. 1000.0) :: !resolve_ms
      done;
      resolve_s := !resolve_s +. (now () -. t2);
      if Flat.ep arena <> ep || not (ep_check arena inst) then incr ep_failures;
      last := Some inst
    end
  done;
  let n_fresh = List.length !solve_ms and n_resolve = List.length !resolve_ms in
  (* One sample, three views: metro's request is the answer to a new
     instance, so latency_p50_ms, solve_ms and overload_rps (fresh
     solves per second) all read this one median. *)
  let solve_med = Stats.median_of !solve_ms in
  let attempted = n_fresh in
  let e2e =
    [
      Report.metric "setup_s" ~unit_:"s" ~samples:(List.length !setup) (Stats.median_of !setup);
      Report.metric "latency_p50_ms" ~unit_:"ms" ~samples:n_fresh solve_med;
      Report.metric "latency_p99_ms" ~unit_:"ms" ~samples:n_fresh (Stats.p99_of !solve_ms);
      Report.metric "goodput" ~unit_:"share" ~samples:n_fresh
        (Stats.share (n_fresh - !ep_failures) n_fresh);
      Report.metric "overload_rps" ~unit_:"req/s" ~samples:n_fresh
        (1000.0 /. solve_med);
      Report.metric "solve_ms" ~unit_:"ms" ~samples:n_fresh solve_med;
      Report.metric "resolve_ms" ~unit_:"ms" ~samples:n_resolve (Stats.median_of !resolve_ms);
      Report.metric "calls_per_s" ~unit_:"calls/s" ~samples:n_resolve
        (float_of_int n_resolve /. !resolve_s);
      Report.metric "peak_rss_mb" ~unit_:"MB" ~samples:1 (Report.peak_rss_mb (Unix.getpid ()));
      Report.metric "failed_share" ~unit_:"share" ~samples:attempted
        (Stats.share !ep_failures attempted);
    ]
  in
  let checks =
    [
      Report.check
        "Flat.ep = Strategy.expected_paging of the coarse strategy (1e-12*c), \
         unchanged by re-solves"
        (!ep_failures = 0)
        (Printf.sprintf "%d of %d fresh instances differ" !ep_failures n_fresh);
    ]
  in
  let layers =
    if not trace then []
    else begin
      (* Tracing cost: re-solves with a span each against re-solves
         timed the same way without one, in alternating batches on the
         last prepared arena; then the exact minor-heap words of a
         steady solve. *)
      let inst = Option.get !last in
      Flat.prepare_coarse ~block arena inst;
      let plain = ref [] and traced = ref [] in
      for b = 0 to 9 do
        for i = 0 to 99 do
          let t = now () in
          Flat.run_coarse arena;
          plain := ((now () -. t) *. 1000.0) :: !plain;
          let _, ms =
            Span.time ~rid:((100 * b) + i) ~name:"flat.run_coarse.resolve" (fun () ->
                Flat.run_coarse arena)
          in
          traced := ms :: !traced
        done
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to resolves_per_instance do
        Flat.run_coarse arena
      done;
      let words = (Gc.minor_words () -. w0) /. float_of_int resolves_per_instance in
      let med name =
        let xs = Span.durations_ms name in
        Report.metric (name ^ "_ms") ~unit_:"ms" ~samples:(List.length xs) (Stats.median_of xs)
      in
      [
        med "instance.create";
        med "flat.prepare_coarse";
        (let xs = Span.durations_ms "flat.run_coarse.resolve" in
         Report.metric "flat.run_coarse_ms" ~unit_:"ms" ~samples:(List.length xs)
           (Stats.median_of xs));
        Report.metric "flat.minor_words_per_solve" ~unit_:"count"
          ~samples:resolves_per_instance words;
        Report.metric "obs.overhead_share" ~unit_:"share" ~samples:(List.length !traced)
          ((Stats.median_of !traced /. Stats.median_of !plain) -. 1.0);
      ]
    end
  in
  {
    Report.attempted;
    failed = !ep_failures;
    e2e;
    layers;
    checks;
    notes =
      [
        Printf.sprintf
          "m=%d c=%d d=%d block=%d: %d cold set-ups, %d fresh solves, %d re-solves"
          m c d block (List.length !setup) n_fresh n_resolve;
      ];
  }
