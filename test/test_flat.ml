(* Differential + GC-regression suite for the flat hot path (Flat).

   Every production solve runs on Flat, so the oracle is the list
   reference ([Order_dp], [Local_search], and the test-side
   [reference_solve] assembled from them): every flat path must return
   the bit-identical expected paging and strategy on random and
   adversarial instances, across solver specs, objectives and domain
   counts. A rational-oracle pin re-checks the flat EPs against the
   exact arithmetic path to ≤ 1e-12·c, so the two float paths cannot
   drift together. The GC section asserts the zero-minor-words contract
   of the run_* cores. *)

open Confcall

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* -------------------- instance generators -------------------- *)

(* Adversarial shapes alongside the random ones: exact weight ties (the
   order comparator must fall back to the index), heavy skew (survivor
   products underflow toward 0), low-entropy grids (many equal
   probabilities, many DP ties), and the m = 1 / d = 1 / d = c edges. *)
let random_instance rng ~kind ~m ~c ~d =
  match kind mod 4 with
  | 0 -> Instance.random_uniform_simplex rng ~m ~c ~d
  | 1 -> Instance.random_zipf rng ~s:(1.1 +. Prob.Rng.unit_float rng) ~m ~c ~d
  | 2 ->
    (* all rows uniform: every cell weight is exactly equal *)
    let p = Array.make_matrix m c (1.0 /. float_of_int c) in
    Instance.create ~d p
  | _ ->
    (* coarse integer grid: lots of exact ties, exactly representable *)
    let p =
      Array.init m (fun _ ->
          let w = Array.init c (fun _ -> Prob.Rng.int rng 4) in
          if Array.for_all (fun x -> x = 0) w then w.(Prob.Rng.int rng c) <- 1;
          let s = float_of_int (Array.fold_left ( + ) 0 w) in
          Array.map (fun n -> float_of_int n /. s) w)
    in
    Instance.create ~d p

let random_dims rng =
  let m = 1 + Prob.Rng.int rng 5 in
  let c = 2 + Prob.Rng.int rng 12 in
  let d = 1 + Prob.Rng.int rng c in
  (m, c, d)

let objective_for rng ~m trial =
  match trial mod 3 with
  | 0 -> Objective.Find_all
  | 1 -> Objective.Find_any
  | _ -> Objective.Find_at_least (1 + Prob.Rng.int rng m)

let random_order rng c =
  let order = Array.init c (fun j -> j) in
  for j = c - 1 downto 1 do
    let k = Prob.Rng.int rng (j + 1) in
    let t = order.(j) in
    order.(j) <- order.(k);
    order.(k) <- t
  done;
  order

(* [Solver.solve] rebuilt from the list reference for every spec that
   runs on Flat; the other specs have a single implementation, shared
   by both sides. *)
let rec reference_solve ~objective spec inst =
  let of_dp exact (r : Order_dp.result) =
    {
      Solver.strategy = r.Order_dp.strategy;
      expected_paging = r.Order_dp.expected_paging;
      exact;
    }
  in
  let weight_order = Instance.weight_order inst in
  match spec with
  | Solver.Greedy ->
    of_dp
      (inst.Instance.m = 1 || inst.Instance.d = 1)
      (Order_dp.solve ~objective inst ~order:weight_order)
  | Solver.Page_all ->
    let strategy = Strategy.page_all inst.Instance.c in
    {
      Solver.strategy;
      expected_paging = Strategy.expected_paging ~objective inst strategy;
      exact = inst.Instance.d = 1;
    }
  | Solver.Within_order order ->
    of_dp false (Order_dp.solve ~objective inst ~order)
  | Solver.Bandwidth_limited b ->
    of_dp false (Order_dp.solve ~objective ~max_group:b inst ~order:weight_order)
  | Solver.Local_search ->
    let r = Local_search.hill_climb ~objective inst in
    {
      Solver.strategy = r.Local_search.strategy;
      expected_paging = r.Local_search.expected_paging;
      exact = false;
    }
  | Solver.Robust { eps; tv } ->
    let ball = Uncertainty.uniform ~tv eps in
    let best = ref None in
    List.iter
      (fun cand ->
        match reference_solve ~objective cand inst with
        | o ->
          let r = Uncertainty.robust_ep ~objective ball inst o.Solver.strategy in
          (match !best with
           | Some (_, r') when r' <= r -> ()
           | _ -> best := Some (o, r))
        | exception Invalid_argument _ -> ())
      Solver.robust_candidates;
    (match !best with
     | Some (o, _) -> { o with Solver.exact = false }
     | None -> invalid_arg "reference: no robust candidate applies")
  | Solver.Exhaustive | Solver.Branch_and_bound | Solver.Best_exact
  | Solver.Class_based ->
    Solver.solve ~objective spec inst

let same_outcome what trial (legacy : Solver.outcome) (flat : Solver.outcome) =
  if legacy.Solver.expected_paging <> flat.Solver.expected_paging then
    Alcotest.failf "%s (trial %d): EP differs: legacy %.17g flat %.17g" what
      trial legacy.Solver.expected_paging flat.Solver.expected_paging;
  if not (Strategy.equal legacy.Solver.strategy flat.Solver.strategy) then
    Alcotest.failf "%s (trial %d): strategies differ: legacy %s flat %s" what
      trial
      (Strategy.to_string legacy.Solver.strategy)
      (Strategy.to_string flat.Solver.strategy);
  if legacy.Solver.exact <> flat.Solver.exact then
    Alcotest.failf "%s (trial %d): exact flag differs" what trial

(* -------------------- differential: solver specs -------------------- *)

(* ≥ 200 instances (random + adversarial), one shared arena rebound
   across all of them — so the cache-invalidation logic is exercised as
   hard as the numerics — and the default domain arena beside it. Every
   spec that runs on Flat must match the list reference bit for bit. *)
let test_differential_specs () =
  let rng = Prob.Rng.create ~seed:0xF1A7 in
  let arena = Flat.create () in
  let trials = 240 in
  for trial = 1 to trials do
    let m, c, d = random_dims rng in
    let inst = random_instance rng ~kind:trial ~m ~c ~d in
    let objective = objective_for rng ~m trial in
    let specs =
      [
        Solver.Greedy;
        Solver.Page_all;
        Solver.Within_order (random_order rng c);
        Solver.Bandwidth_limited (1 + ((c + d - 1) / d));
        Solver.Local_search;
      ]
      @ (if trial mod 10 = 0 then [ Solver.Robust { eps = 0.05; tv = infinity } ]
         else [])
    in
    List.iter
      (fun spec ->
        let what = Solver.spec_to_string spec in
        let legacy = reference_solve ~objective spec inst in
        let flat ?arena () = Solver.solve ~objective ?arena spec inst in
        same_outcome what trial legacy (flat ~arena ());
        same_outcome what trial legacy (flat ()))
      specs
  done

(* Local search must also agree on the iteration count: the flat climb
   claims to replay the legacy scan move for move. *)
let test_differential_hill_climb_iterations () =
  let rng = Prob.Rng.create ~seed:0x1C11 in
  let arena = Flat.create () in
  for trial = 1 to 40 do
    let m, c, d = random_dims rng in
    let inst = random_instance rng ~kind:trial ~m ~c ~d in
    let objective = objective_for rng ~m trial in
    let legacy = Local_search.hill_climb ~objective inst in
    let flat = Flat.hill_climb ~objective arena inst in
    check int_t "iterations" legacy.Local_search.iterations
      flat.Local_search.iterations;
    check bool_t "ep bits" true
      (legacy.Local_search.expected_paging = flat.Local_search.expected_paging);
    check bool_t "strategy" true
      (Strategy.equal legacy.Local_search.strategy flat.Local_search.strategy)
  done

(* Coarse DP: block boundaries must not perturb the per-device mass
   chains — flat and legacy agree bitwise for every block size,
   including block = 1 (≡ the full DP). *)
let test_differential_coarse () =
  let rng = Prob.Rng.create ~seed:0xC0A2 in
  let arena = Flat.create () in
  let blocks = [| 1; 2; 3; 5; 16 |] in
  for trial = 1 to 60 do
    let m = 1 + Prob.Rng.int rng 4 in
    let c = 4 + Prob.Rng.int rng 30 in
    let d = 1 + Prob.Rng.int rng (min c 6) in
    let inst = random_instance rng ~kind:trial ~m ~c ~d in
    let objective = objective_for rng ~m trial in
    let block = blocks.(trial mod Array.length blocks) in
    let order = Instance.weight_order inst in
    let legacy = Order_dp.solve_coarse ~objective ~block inst ~order in
    let flat = Flat.coarse ~objective ~block arena inst in
    check bool_t "coarse ep bits" true
      (legacy.Order_dp.expected_paging = flat.Order_dp.expected_paging);
    check bool_t "coarse strategy" true
      (Strategy.equal legacy.Order_dp.strategy flat.Order_dp.strategy)
  done

(* One arena switched between prepare kinds must answer every run_*
   exactly as a fresh arena prepared the same way: the EP bits and every
   group size when the call is valid, the same error when it is not.
   This pins the validity key of the arena's one prefix table (order
   kind, block, instance, objective). *)
let test_arena_reuse_across_prepare_kinds () =
  let rng = Prob.Rng.create ~seed:0x5A4E in
  let c = 40 in
  let inst = Instance.random_zipf rng ~s:1.3 ~m:4 ~c ~d:4 in
  let order = random_order rng c in
  let steps =
    [
      (* name, prepare, how many of the six runs it makes valid *)
      ("prepare", (fun a -> Flat.prepare a inst), 6);
      ("prepare_coarse 8", (fun a -> Flat.prepare_coarse ~block:8 a inst), 2);
      ("prepare_order", (fun a -> Flat.prepare_order a inst ~order), 3);
      ("prepare again", (fun a -> Flat.prepare a inst), 6);
      ("prepare_coarse 1", (fun a -> Flat.prepare_coarse ~block:1 a inst), 6);
    ]
  in
  let runs =
    [
      ("run_greedy", fun a -> Flat.run_greedy a);
      ("run_order_dp", fun a -> Flat.run_order_dp a);
      ("run_order_dp max_group", fun a -> Flat.run_order_dp ~max_group:12 a);
      ("run_coarse", fun a -> Flat.run_coarse a);
      ("run_hill_climb", fun a -> Flat.run_hill_climb a);
      ("run_page_all", fun a -> Flat.run_page_all a);
    ]
  in
  let outcome run a =
    match run a with
    | () ->
      Ok
        ( Int64.bits_of_float (Flat.ep a),
          List.init (Flat.rounds a) (Flat.size_at a) )
    | exception Invalid_argument msg -> Error msg
  in
  let shared = Flat.create () in
  List.iter
    (fun (step, prepare, valid) ->
      prepare shared;
      let oks =
        List.filter
          (fun (name, run) ->
            let fresh = Flat.create () in
            prepare fresh;
            let got = outcome run shared in
            if got <> outcome run fresh then
              Alcotest.failf
                "%s after %s: reused arena differs from a fresh one" name step;
            Result.is_ok got)
          runs
      in
      check int_t (step ^ ": valid runs") valid (List.length oks);
      if step = "prepare_coarse 8" then
        List.iter
          (fun (msg, run) ->
            Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
                run shared))
          [
            ( "Flat.run_greedy: arena not prepared with the weight order",
              fun a -> Flat.run_greedy a );
            ( "Flat.run_order_dp: arena not prepared",
              fun a -> Flat.run_order_dp a );
            ( "Flat.run_hill_climb: arena not prepared with the weight order",
              fun a -> Flat.run_hill_climb a );
          ])
    steps

(* Rational-oracle pin: the flat EP must sit within 1e-12·c of the
   exact-arithmetic evaluation of the same strategy — bit-identity with
   the legacy float path alone would be satisfied by two paths that are
   wrong together. *)
let test_rational_oracle_pin () =
  let rng = Prob.Rng.create ~seed:0x0A17 in
  let arena = Flat.create () in
  for trial = 1 to 60 do
    let m = 1 + Prob.Rng.int rng 3 in
    let c = 2 + Prob.Rng.int rng 8 in
    let d = 1 + Prob.Rng.int rng c in
    let rows_q =
      Array.init m (fun _ ->
          let w = Array.init c (fun _ -> Prob.Rng.int rng 20) in
          if Array.for_all (fun x -> x = 0) w then w.(Prob.Rng.int rng c) <- 1;
          let s = Array.fold_left ( + ) 0 w in
          Array.map (fun n -> Numeric.Rational.of_ints n s) w)
    in
    let exact = Instance.Exact.create ~d rows_q in
    let inst = Instance.Exact.to_float exact in
    let objective = objective_for rng ~m trial in
    List.iter
      (fun (what, r) ->
        let ep_exact =
          Numeric.Rational.to_float
            (Strategy.expected_paging_exact ~objective exact
               r.Order_dp.strategy)
        in
        if
          abs_float (r.Order_dp.expected_paging -. ep_exact)
          > 1e-12 *. float_of_int c
        then
          Alcotest.failf "%s (trial %d): flat EP %.17g vs exact %.17g" what
            trial r.Order_dp.expected_paging ep_exact)
      [
        ("greedy", Flat.greedy ~objective arena inst);
        ("coarse", Flat.coarse ~objective ~block:3 arena inst);
        ( "within-order",
          Flat.order_dp ~objective arena inst ~order:(random_order rng c) );
      ]
  done

(* -------------------- differential: runner, domains 1 and 4 ------- *)

let runner_winner_ep ?pool ?arena inst ~objective =
  let report = Runner.run ~objective ?pool ?arena inst in
  match report.Runner.winner with
  | Some (spec, o) -> (spec, o.Solver.expected_paging, o.Solver.strategy)
  | None -> Alcotest.fail "runner produced no winner"

(* Without a budget the runner's winner is the first chain stage that
   applies; the reference walks the same chain on [reference_solve]. *)
let reference_winner_ep inst ~objective =
  let rec first = function
    | [] -> Alcotest.fail "reference chain produced no winner"
    | spec :: rest ->
      (match reference_solve ~objective spec inst with
       | o -> (spec, o.Solver.expected_paging, o.Solver.strategy)
       | exception Invalid_argument _ -> first rest)
  in
  first Runner.default_chain

let test_runner_differential_domains () =
  let rng = Prob.Rng.create ~seed:0x40FE in
  let arena = Flat.create () in
  let compare_one ?pool trial =
    let m, c, d = random_dims rng in
    let inst = random_instance rng ~kind:trial ~m ~c ~d in
    let objective = objective_for rng ~m trial in
    let wl, el, sl = reference_winner_ep inst ~objective in
    List.iter
      (fun (wf, ef, sf) ->
        check bool_t "same winner spec" true (wl = wf);
        check bool_t "same winner ep" true (el = ef);
        check bool_t "same winner strategy" true (Strategy.equal sl sf))
      [
        runner_winner_ep ?pool inst ~objective;
        runner_winner_ep ?pool ~arena inst ~objective;
      ]
  in
  for trial = 1 to 12 do
    compare_one trial
  done;
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      for trial = 13 to 24 do
        compare_one ~pool trial
      done)

(* -------------------- GC regression -------------------- *)

let steady_instance () =
  let rng = Prob.Rng.create ~seed:0x6C60 in
  Instance.random_uniform_simplex rng ~m:6 ~c:48 ~d:5

let test_zero_alloc_cores () =
  let inst = steady_instance () in
  List.iter
    (fun (oname, objective) ->
      let arena = Flat.create () in
      Flat.prepare ~objective arena inst;
      Testutil.assert_no_minor_alloc
        (Printf.sprintf "run_greedy[%s]" oname)
        (fun () -> Flat.run_greedy arena);
      Testutil.assert_no_minor_alloc
        (Printf.sprintf "run_order_dp[%s]" oname)
        (fun () -> Flat.run_order_dp ~max_group:12 arena);
      Testutil.assert_no_minor_alloc
        (Printf.sprintf "run_page_all[%s]" oname)
        (fun () -> Flat.run_page_all arena);
      Testutil.assert_no_minor_alloc
        (Printf.sprintf "run_hill_climb[%s]" oname)
        (fun () -> Flat.run_hill_climb arena);
      Flat.prepare_coarse ~objective ~block:8 arena inst;
      Testutil.assert_no_minor_alloc
        (Printf.sprintf "run_coarse[%s]" oname)
        (fun () -> Flat.run_coarse arena))
    [
      ("find-all", Objective.Find_all);
      ("find-any", Objective.Find_any);
      ("find-2", Objective.Find_at_least 2);
    ]

(* Rebinding the arena to another instance (prepare itself may allocate
   — it sorts and rebuilds tables) must not poison the cores: right
   after every rebind the run_* entry points are allocation-free
   again. *)
let test_zero_alloc_after_rebind () =
  let rng = Prob.Rng.create ~seed:0x2EB1 in
  let insts =
    Array.init 4 (fun k ->
        Instance.random_uniform_simplex rng ~m:(3 + k) ~c:(30 + (5 * k)) ~d:4)
  in
  let arena = Flat.create () in
  Array.iteri
    (fun k inst ->
      Flat.prepare arena inst;
      Testutil.assert_no_minor_alloc
        (Printf.sprintf "run_greedy after rebind %d" k)
        (fun () -> Flat.run_greedy arena);
      Testutil.assert_no_minor_alloc
        (Printf.sprintf "run_hill_climb after rebind %d" k)
        (fun () -> Flat.run_hill_climb arena))
    insts

(* -------------------- boundary -------------------- *)

let test_named_dimension_errors () =
  let expect_msg what input fragment =
    match Instance.of_string input with
    | _ -> Alcotest.failf "%s: accepted a degenerate header" what
    | exception Invalid_argument msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      if not (contains msg fragment) then
        Alcotest.failf "%s: error %S does not name the axis (%S)" what msg
          fragment
  in
  expect_msg "m = 0" "0 4 2\n" "no devices";
  expect_msg "m < 0" "-3 4 2\n" "no devices";
  expect_msg "c = 0" "2 0 1\n" "no cells"

let () =
  Alcotest.run "flat"
    [
      ( "differential",
        [
          Alcotest.test_case "solver specs, 240 instances" `Quick
            test_differential_specs;
          Alcotest.test_case "hill-climb iteration parity" `Quick
            test_differential_hill_climb_iterations;
          Alcotest.test_case "coarse DP all block sizes" `Quick
            test_differential_coarse;
          Alcotest.test_case "rational-oracle pin" `Quick
            test_rational_oracle_pin;
          Alcotest.test_case "runner, domains 1 and 4" `Quick
            test_runner_differential_domains;
          Alcotest.test_case "one arena across prepare kinds" `Quick
            test_arena_reuse_across_prepare_kinds;
        ] );
      ( "gc-regression",
        [
          Alcotest.test_case "zero minor words per solve" `Quick
            test_zero_alloc_cores;
          Alcotest.test_case "zero minor words after rebind" `Quick
            test_zero_alloc_after_rebind;
        ] );
      ( "boundary",
        [
          Alcotest.test_case "named m=0 / c=0 errors" `Quick
            test_named_dimension_errors;
        ] );
    ]
