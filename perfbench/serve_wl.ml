(* The two serve workloads: a [confcall serve] child process on a Unix
   socket, driven by an open-loop Poisson generator over one data
   connection (plus one control connection for health, metrics and
   drain) with one receiver thread. Every frame sends "cache": false,
   so the daemon's result cache is never consulted. *)

open Confcall
module Json = Wire.Json
module Proto = Wire.Proto

type spec = {
  m : int;
  c : int;
  d : int;
  zipf : float;
  pool : int;  (** distinct instances the requests draw from *)
  chain : string;
  budget_ms : float;
  steady_rps : float;  (** fixed offered rate of the steady phase *)
  overload_rps : float;  (** fixed offered rate of the overload phase *)
  overload_s : float;  (** overload phase length; the rest is steady *)
  limit_ms : float;  (** latency limit for goodput *)
  replays : int;  (** frames replayed in-process by a traced run *)
}

let deadline =
  {
    m = 3; c = 12; d = 2; zipf = 1.1; pool = 1024;
    chain = "default"; budget_ms = 40.0; steady_rps = 16.0;
    overload_rps = 3000.0; overload_s = 2.0; limit_ms = 80.0; replays = 200;
  }

let mid =
  {
    m = 32; c = 512; d = 8; zipf = 1.1; pool = 8;
    chain = "fast"; budget_ms = 500.0; steady_rps = 22.0;
    overload_rps = 120.0; overload_s = 2.0; limit_ms = 1000.0; replays = 24;
  }

let spawns = 9
let warmup_s = 2.0
let now = Unix.gettimeofday

(* ---------------- sockets and lines ---------------- *)

type reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  pending : Buffer.t;
  mutable lines : string list;  (** complete lines not yet taken *)
}

let reader fd =
  { fd; chunk = Bytes.create 65536; pending = Buffer.create 4096; lines = [] }

(* Reads once from the socket; returns false at end of stream. *)
let fill r =
  match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
  | 0 -> false
  | n ->
    let start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get r.chunk i = '\n' then begin
        Buffer.add_subbytes r.pending r.chunk !start (i - !start);
        r.lines <- Buffer.contents r.pending :: r.lines;
        Buffer.clear r.pending;
        start := i + 1
      end
    done;
    Buffer.add_subbytes r.pending r.chunk !start (n - !start);
    true
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> false

let take_lines r =
  let ls = List.rev r.lines in
  r.lines <- [];
  ls

let rec read_line r =
  match take_lines r with
  | l :: rest ->
    r.lines <- List.rev rest;
    Some l
  | [] -> if fill r then read_line r else None

let write_string fd s =
  ignore (Unix.write_substring fd s 0 (String.length s))

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

(* One synchronous request on the control connection. *)
let control r line =
  write_string r.fd (line ^ "\n");
  match read_line r with
  | Some l -> (
    match Proto.decode_response l with
    | Ok resp -> resp
    | Error msg -> failwith ("control response: " ^ msg))
  | None -> failwith "control connection closed"

(* ---------------- the daemon ---------------- *)

type daemon = { pid : int; ctl : reader; setup_s : float }

(* The daemon gets the caller's environment minus the program's own
   CONFCALL_* knobs (chaos, domains), so only the flags below shape it. *)
let child_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.length kv >= 9 && String.sub kv 0 9 = "CONFCALL_"))
       (Array.to_list (Unix.environment ())))

(* [spawn] starts a daemon and returns once its first health request
   answers ok; [setup_s] is the time from spawn to that answer. *)
let spawn ~cli ~sock ~log =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let t0 = now () in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  (* stdin is the log itself, opened read-only: the daemon reads nothing,
     and nothing outside the run's directory is touched *)
  let inp = Unix.openfile log [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process_env cli
      [| cli; "serve"; "--socket"; sock; "--domains"; "1"; "--capacity"; "64";
         "--quiet" |]
      (child_env ()) inp out out
  in
  Unix.close out;
  Unix.close inp;
  let rec wait () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
     | 0, _ -> ()
     | _ -> failwith "daemon exited before answering health");
    if now () -. t0 > 30.0 then begin
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      failwith "daemon did not answer health in 30 s"
    end;
    match connect sock with
    | exception Unix.Unix_error _ ->
      Thread.delay 0.0002;
      wait ()
    | fd -> (
      let r = reader fd in
      match control r "{\"id\":\"health\",\"op\":\"health\"}" with
      | resp when resp.Proto.status = "ok" -> r
      | _ | (exception (Failure _ | Unix.Unix_error _)) ->
        Unix.close fd;
        Thread.delay 0.0002;
        wait ())
  in
  let ctl = wait () in
  { pid; ctl; setup_s = now () -. t0 }

(* Drain, then wait for the process to exit (killing it after 30 s). *)
let stop d =
  (try ignore (control d.ctl "{\"id\":\"drain\",\"op\":\"drain\"}")
   with _ -> ());
  (try Unix.close d.ctl.fd with Unix.Unix_error _ -> ());
  let t0 = now () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () -. t0 < 30.0 ->
      Thread.delay 0.005;
      wait ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  wait ()

(* ---------------- inputs ---------------- *)

(* A warm-up phase lets the daemon's heap and arenas reach their steady
   size before anything is measured; its answers are still checked. *)
type phase = Warmup | Steady | Overload

type request = {
  idx : int;
  phase : phase;
  inst : int;  (** index into the instance pool *)
  due : float;  (** seconds after the schedule start *)
}

(* The open-loop Poisson schedule, conditioned on its count: a phase of
   length T at rate r holds exactly round(r*T) requests at sorted
   uniform times, which is a Poisson process given that count. Fixing
   the count keeps the offered load the same on every seed. Each request
   names a uniformly drawn pool instance. *)
let schedule rng spec ~steady_s =
  let phase ph ~rate ~from ~len =
    let n = int_of_float (Float.round (rate *. len)) in
    let times = Array.init n (fun _ -> from +. Prob.Rng.float rng len) in
    Array.sort Float.compare times;
    Array.map (fun due -> (ph, due)) times
  in
  let all =
    Array.concat
      [
        phase Warmup ~rate:spec.steady_rps ~from:0.0 ~len:warmup_s;
        phase Steady ~rate:spec.steady_rps ~from:warmup_s ~len:steady_s;
        phase Overload ~rate:spec.overload_rps ~from:(warmup_s +. steady_s)
          ~len:spec.overload_s;
      ]
  in
  Array.mapi
    (fun idx (phase, due) -> { idx; phase; inst = Prob.Rng.int rng spec.pool; due })
    all

let instance_pool rng spec =
  Array.init spec.pool (fun _ ->
      Instance.random_zipf rng ~s:spec.zipf ~m:spec.m ~c:spec.c ~d:spec.d)

let frame spec ~chain ~id ~inst_json =
  Printf.sprintf
    "{\"id\": \"%d\", \"op\": \"solve\", \"instance\": %s, \"chain\": %S, \
     \"budget_ms\": %s, \"cache\": false}"
    id inst_json chain
    (Json.to_string (Json.Num spec.budget_ms))

(* ---------------- the generator ---------------- *)

type run = {
  start_s : float;  (** absolute time of schedule offset 0 *)
  sent : float array;  (** absolute send time per request; nan if unsent *)
  written : float array;  (** when the frame's last byte was written *)
  received : (float * string) list;  (** arrival time and response line *)
  lost : bool;  (** the data connection ended before every answer *)
  steady_rss_mb : float;  (** daemon VmHWM when the overload phase begins *)
}

(* Sends every request at its due time from this thread while one
   receiver thread stamps responses. A blocked write delays later
   sends; their latency still counts from their due time. *)
let drive ~sock ~frames ~pid reqs =
  let fd = connect sock in
  let n = Array.length reqs in
  let sent = Array.make n Float.nan and written = Array.make n Float.nan in
  let received = ref [] and got = ref 0 in
  let give_up_at = Atomic.make infinity in
  let lost = ref false and steady_rss_mb = ref 0.0 in
  let r = reader fd in
  let receiver () =
    let rec loop () =
      if !got < n && now () < Atomic.get give_up_at then
        match Unix.select [ fd ] [] [] 0.2 with
        | [], _, _ -> loop ()
        | _ ->
          if fill r then begin
            let t = now () in
            List.iter
              (fun l ->
                received := (t, l) :: !received;
                incr got)
              (take_lines r);
            loop ()
          end
          else lost := true
    in
    loop ()
  in
  let th = Thread.create receiver () in
  let start_s = now () +. 0.05 in
  (try
     Array.iteri
       (fun i q ->
         let due = start_s +. q.due in
         let wait = due -. now () in
         if wait > 0.0 then Thread.delay wait;
         if q.phase = Overload && !steady_rss_mb = 0.0 then
           steady_rss_mb := Report.peak_rss_mb pid;
         sent.(i) <- now ();
         write_string fd (frames i);
         written.(i) <- now ())
       reqs
   with Unix.Unix_error _ -> lost := true);
  if !steady_rss_mb = 0.0 then steady_rss_mb := Report.peak_rss_mb pid;
  (* Answers still owed get 30 s after the last send. *)
  Atomic.set give_up_at (now () +. 30.0);
  Thread.join th;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  {
    start_s;
    sent;
    written;
    received = List.rev !received;
    lost = !lost;
    steady_rss_mb = !steady_rss_mb;
  }

(* ---------------- answers ---------------- *)

type answer = {
  status : string;
  recv_s : float;
  queue_ms : float;
  exec_ms : float;
  ladder : string;
  reason : string;
  groups : int array array option;
  ep : float option;
}

let num json k =
  Option.value ~default:0.0 (Option.bind (Json.member k json) Json.to_num)

let str json k =
  Option.value ~default:"" (Option.bind (Json.member k json) Json.to_str)

let groups_of json =
  match Json.member "strategy" json with
  | Some (Json.Arr gs) ->
    Some
      (Array.of_list
         (List.map
            (function
              | Json.Arr cells ->
                Array.of_list
                  (List.map
                     (fun c -> Option.value ~default:(-1) (Json.to_int c))
                     cells)
              | _ -> [||])
            gs))
  | _ -> None

let answer_of ~recv_s (resp : Proto.response) =
  let j = resp.Proto.json in
  {
    status = resp.Proto.status;
    recv_s;
    queue_ms = num j "queue_ms";
    exec_ms = num j "elapsed_ms";
    ladder = str j "ladder";
    reason = str j "degraded_reason";
    groups = groups_of j;
    ep = Option.bind (Json.member "expected_paging" j) Json.to_num;
  }

let answers n (run : run) =
  let by_idx = Array.make n None in
  List.iter
    (fun (t, line) ->
      match Proto.decode_response line with
      | Error _ -> ()
      | Ok resp -> (
        match Option.bind resp.Proto.rid int_of_string_opt with
        | Some i when i >= 0 && i < n -> by_idx.(i) <- Some (answer_of ~recv_s:t resp)
        | _ -> ()))
    run.received;
  by_idx

let answered a = a.status = "ok" || a.status = "degraded"

(* The wire carries 12 significant digits: a value re-rendered through
   the daemon's own number format must read back identically. *)
let wire_float x = float_of_string (Json.to_string (Json.Num x))

(* Valid strategy for the instance, and the reported EP matches the
   in-process re-evaluation of the returned groups. *)
let check_answer inst a =
  match (a.groups, a.ep) with
  | Some g, Some ep -> (
    match Strategy.create g with
    | exception Invalid_argument msg -> Error ("invalid strategy: " ^ msg)
    | s -> (
      match Strategy.validate ~c:inst.Instance.c s with
      | Error msg -> Error ("invalid strategy: " ^ msg)
      | Ok () ->
        let local = Strategy.expected_paging inst s in
        if Float.abs (local -. ep) <= 1e-9 *. Float.max 1.0 (Float.abs local)
        then Ok ()
        else Error (Printf.sprintf "EP %.17g on the wire, %.17g in-process" ep local)))
  | _ -> Error "answer carries no strategy or EP"

(* An ok answer on the fast chain is the greedy DP's, bit for bit: the
   same groups, and the same EP once rendered to the wire. *)
let is_greedy g a =
  a.groups = Some (Strategy.groups g.Order_dp.strategy)
  && a.ep = Some (wire_float g.Order_dp.expected_paging)

(* The fast-chain leg: after the measured phases, each of the first
   [fast_leg] pool instances is sent once on the fast chain, one at a
   time over the control connection, so that every serve workload checks
   the daemon's greedy answers against the in-process one. The overload
   phase may have left the daemon's breaker open: a rejected frame is
   sent again after the retry_after_ms it names, at most [leg_tries]
   times. Returns
   (sent, answered, ok, not bit-equal to Flat.greedy, bad answers,
   the first unanswered status). *)
let fast_leg = 64
let leg_tries = 20

let run_fast_leg spec ctl ~texts ~greedy_of pool =
  let k = min fast_leg (Array.length pool) in
  let n_answered = ref 0 and ok = ref 0 and differ = ref 0 and bad = ref 0 in
  let first_miss = ref "" in
  for i = 0 to k - 1 do
    let line = frame spec ~chain:"fast" ~id:i ~inst_json:texts.(i) in
    let rec send tries =
      let resp = control ctl line in
      if resp.Proto.status = "rejected" && tries > 1 then begin
        Thread.delay (Float.max 0.001 (num resp.Proto.json "retry_after_ms" /. 1000.0));
        send (tries - 1)
      end
      else resp
    in
    let resp = send leg_tries in
    let a = answer_of ~recv_s:(now ()) resp in
    if answered a then begin
      incr n_answered;
      if Result.is_error (check_answer pool.(i) a) then incr bad;
      if a.status = "ok" then begin
        incr ok;
        if not (is_greedy (greedy_of i) a) then incr differ
      end
    end
    else if !first_miss = "" then
      first_miss := a.status ^ ": " ^ str resp.Proto.json "error"
  done;
  (k, !n_answered, !ok, !differ, !bad, !first_miss)

(* ---------------- the workload ---------------- *)

let quantiles name ~unit_ xs =
  let a = Stats.sorted xs and n = List.length xs in
  [
    Report.metric (name ^ ".p50") ~unit_ ~samples:n (Stats.quantile 0.5 a);
    Report.metric (name ^ ".p99") ~unit_ ~samples:n (Stats.quantile 0.99 a);
  ]

let prometheus_counter text name =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line with
      | [ k; v ] when k = name -> Option.value ~default:acc (int_of_string_opt v)
      | _ -> acc)
    0
    (String.split_on_char '\n' text)

(* In-process replay of the workload's own frames through the layers the
   daemon runs them through, one span per call: the first [replays]
   steady-phase frames. *)
let replay spec ~frames ~reqs idxs pool =
  let arena = Flat.domain_arena () in
  let chain =
    match Runner.chain_of_string spec.chain with
    | Ok c -> c
    | Error e -> failwith e
  in
  let replay_one i =
    let rid = reqs.(i).idx in
    let t0 = now () in
    let fr, _ =
      Span.time ~rid ~name:"wire.frame_decode" (fun () -> Proto.decode (frames i))
    in
    let text =
      match fr with
      | Ok { Proto.req = Proto.Solve sr; _ } -> sr.Proto.instance
      | _ -> failwith "replay: frame does not decode to a solve"
    in
    let inst, _ =
      Span.time ~rid ~name:"instance.parse" (fun () -> Instance.of_string text)
    in
    ignore
      (Span.time ~rid ~name:"runner.run" (fun () ->
           Runner.run ~budget_ms:spec.budget_ms ~chain ~arena inst));
    ignore
      (Span.time ~rid ~name:"bounds.lower_bound" (fun () -> Bounds.lower_bound inst));
    (* a freshly parsed copy, as each request is, so prepare is not cached *)
    let fresh = Instance.of_string text in
    ignore (Span.time ~rid ~name:"flat.prepare" (fun () -> Flat.prepare arena fresh));
    ignore (Span.time ~rid ~name:"flat.greedy" (fun () -> Flat.run_greedy arena));
    if spec.chain = "default" then
      ignore
        (Span.time ~rid ~name:"solver.exact" (fun () ->
             Solver.solve Solver.Best_exact pool.(reqs.(i).inst)));
    ignore (Span.add ~rid ~name:"replay" ~start_s:t0 ~stop_s:(now ()) ())
  in
  List.iteri (fun k i -> if k < spec.replays then replay_one i) idxs

let contains ~sub s =
  let k = String.length sub in
  let rec at i = i + k <= String.length s && (String.sub s i k = sub || at (i + 1)) in
  at 0

let run spec ~cli ~dir ~seed ~seconds ~trace =
  let rng = Prob.Rng.create ~seed in
  let pool = instance_pool rng spec in
  let texts = Array.map (fun i -> Json.to_string (Json.Str (Instance.to_string i))) pool in
  let steady_s = Float.max 1.0 (float_of_int seconds -. warmup_s -. spec.overload_s) in
  let reqs = schedule rng spec ~steady_s in
  let n = Array.length reqs in
  let frames i = frame spec ~chain:spec.chain ~id:reqs.(i).idx ~inst_json:texts.(reqs.(i).inst) ^ "\n" in
  let log = Filename.concat dir "serve.log" in
  let sock k = Filename.concat dir (Printf.sprintf "serve-%d.sock" k) in
  (* Set-up is timed on [spawns] fresh daemons in turn; the last serves. *)
  let first =
    List.init (spawns - 1) (fun k ->
        let x = spawn ~cli ~sock:(sock k) ~log in
        stop x;
        x.setup_s)
  in
  let sock = sock (spawns - 1) in
  let d = spawn ~cli ~sock ~log in
  let setup = d.setup_s :: first in
  let greedy_cache = Hashtbl.create 64 in
  let greedy_of k =
    match Hashtbl.find_opt greedy_cache k with
    | Some g -> g
    | None ->
      let g = Flat.greedy (Flat.create ()) pool.(k) in
      Hashtbl.add greedy_cache k g;
      g
  in
  let run, leg, health, metrics =
    Fun.protect
      ~finally:(fun () -> stop d)
      (fun () ->
        let run = drive ~sock ~frames ~pid:d.pid reqs in
        let leg = run_fast_leg spec d.ctl ~texts ~greedy_of pool in
        ( run,
          leg,
          control d.ctl "{\"id\":\"h2\",\"op\":\"health\"}",
          control d.ctl "{\"id\":\"m\",\"op\":\"metrics\"}" ))
  in
  let leg_sent, leg_answered, leg_ok, leg_differ, leg_bad, leg_miss = leg in
  let prom = str metrics.Proto.json "prometheus" in
  let cache_hits = int_of_float (num health.Proto.json "cache_hits") in
  let frame_errors = prometheus_counter prom "serve_frame_errors" in
  let by_idx = answers n run in
  let all = List.init n Fun.id in
  let in_phase ph = List.filter (fun i -> reqs.(i).phase = ph) all in
  let steady = in_phase Steady and over = in_phase Overload in
  let n_steady = List.length steady and n_over = List.length over in
  let status i = match by_idx.(i) with Some a -> a.status | None -> "none" in
  let answers_of idxs =
    List.filter_map
      (fun i -> match by_idx.(i) with Some a when answered a -> Some (i, a) | _ -> None)
      idxs
  in
  let all_answers = answers_of all in
  let steady_answers = answers_of steady and over_answers = answers_of over in
  (* correctness: every answer, warm-up included *)
  let bad_answers = ref 0 and first_bad = ref "" in
  let not_greedy = ref 0 and fast_ok = ref 0 in
  List.iter
    (fun (i, a) ->
      (match check_answer pool.(reqs.(i).inst) a with
       | Ok () -> ()
       | Error msg ->
         incr bad_answers;
         if !first_bad = "" then first_bad := Printf.sprintf "request %d: %s" i msg);
      if spec.chain = "fast" && a.status = "ok" then begin
        incr fast_ok;
        if not (is_greedy (greedy_of reqs.(i).inst) a) then incr not_greedy
      end)
    all_answers;
  (* The daemon's queue and exec intervals lie inside the benchmark's
     send-to-answer interval: what remains of it (connection-thread
     decode and parse, admission, socket, writer) cannot be negative. *)
  let inside_send (i, a) =
    ((a.recv_s -. run.sent.(i)) *. 1000.0) -. a.queue_ms -. a.exec_ms >= -0.05
  in
  let outside = List.filter (fun ia -> not (inside_send ia)) all_answers in
  (* A request fails when it gets an error frame or no answer, is
     rejected outside the overload phase, or fails a check. *)
  let failed =
    List.length
      (List.filter
         (fun i ->
           match status i with
           | "ok" | "degraded" -> false
           | "rejected" -> reqs.(i).phase <> Overload
           | _ -> true)
         all)
    + !bad_answers + !not_greedy + List.length outside
    + (leg_sent - leg_answered) + leg_differ + leg_bad
  in
  let due i = run.start_s +. reqs.(i).due in
  let latency_ms i =
    match by_idx.(i) with
    | Some a when answered a -> (a.recv_s -. due i) *. 1000.0
    | _ -> infinity
  in
  let steady_lat = List.map latency_ms steady in
  let good =
    List.length
      (List.filter (fun i -> status i = "ok" && latency_ms i <= spec.limit_ms) steady)
  in
  let last_recv xs = List.fold_left (fun m (_, a) -> Float.max m a.recv_s) 0.0 xs in
  let first_recv xs = List.fold_left (fun m (_, a) -> Float.min m a.recv_s) infinity xs in
  (* Sustained answer rate while the overload traffic is being served. *)
  let over_rps =
    let k = List.length over_answers in
    if k < 2 then 0.0
    else float_of_int (k - 1) /. (last_recv over_answers -. first_recv over_answers)
  in
  let steady_start = run.start_s +. warmup_s in
  (* Repeated: an instance already answered earlier in the run. *)
  let seen = Hashtbl.create 1024 in
  let repeat =
    Array.map
      (fun q ->
        let r = Hashtbl.mem seen q.inst in
        Hashtbl.replace seen q.inst ();
        r)
      reqs
  in
  let exec_ms = List.map (fun (_, a) -> a.exec_ms) steady_answers in
  let resolve =
    List.filter_map (fun (i, a) -> if repeat.(i) then Some a.exec_ms else None) steady_answers
  in
  let e2e =
    [
      Report.metric "setup_s" ~unit_:"s" ~samples:spawns (Stats.median_of setup);
      Report.metric "latency_p50_ms" ~unit_:"ms" ~samples:n_steady (Stats.median_of steady_lat);
      Report.metric "latency_p99_ms" ~unit_:"ms" ~samples:n_steady (Stats.p99_of steady_lat);
      Report.metric "goodput" ~unit_:"share" ~samples:n_steady (Stats.share good n_steady);
      Report.metric "overload_rps" ~unit_:"req/s" ~samples:(List.length over_answers) over_rps;
      Report.metric "solve_ms" ~unit_:"ms" ~samples:(List.length exec_ms) (Stats.median_of exec_ms);
      Report.metric "resolve_ms" ~unit_:"ms" ~samples:(List.length resolve) (Stats.median_of resolve);
      Report.metric "calls_per_s" ~unit_:"calls/s" ~samples:(List.length steady_answers)
        (float_of_int (List.length steady_answers) /. (last_recv steady_answers -. steady_start));
      Report.metric "peak_rss_mb" ~unit_:"MB" ~samples:1 run.steady_rss_mb;
      Report.metric "failed_share" ~unit_:"share" ~samples:(n + leg_sent)
        (Stats.share failed (n + leg_sent));
    ]
  in
  (* The reported residual is what the daemon's durations leave of the
     latency (from the due time): send wait, connection-thread decode
     and parse, admission, socket and writer. latency = queue + exec +
     residual holds by this definition; the check above is the part
     that can fail. *)
  let residual i a = ((a.recv_s -. due i) *. 1000.0) -. a.queue_ms -. a.exec_ms in
  let checks =
    [
      Report.check "answers: valid strategy, wire EP = in-process EP"
        (!bad_answers = 0)
        (if !bad_answers = 0 then Printf.sprintf "%d answers" (List.length all_answers)
         else Printf.sprintf "%d bad; first: %s" !bad_answers !first_bad);
      Report.check "daemon: zero cache hits, zero frame errors"
        (cache_hits = 0 && frame_errors = 0)
        (Printf.sprintf "cache_hits=%d frame_errors=%d" cache_hits frame_errors);
      Report.check "daemon queue + exec inside the send-to-answer interval"
        (outside = [])
        (Printf.sprintf "%d of %d exceed it by more than 0.05 ms" (List.length outside)
           (List.length all_answers));
      Report.check "fast-chain leg: every frame answered, valid, ok answers bit-equal to Flat.greedy"
        (leg_answered = leg_sent && leg_ok > 0 && leg_differ = 0 && leg_bad = 0)
        (Printf.sprintf "%d sent, %d answered, %d ok, %d differ, %d bad%s" leg_sent
           leg_answered leg_ok leg_differ leg_bad
           (if leg_miss = "" then "" else "; first unanswered: " ^ leg_miss));
    ]
    @ (if spec.chain = "fast" then
         [
           Report.check "ok answers bit-equal to in-process Flat.greedy" (!not_greedy = 0)
             (Printf.sprintf "%d of %d differ" !not_greedy !fast_ok);
         ]
       else [])
    @ if run.lost then [ Report.check "data connection stayed up" false "lost" ] else []
  in
  let layers =
    if not trace then []
    else begin
      (* Per-request spans, placed from the daemon's reported durations:
         exec ends at the answer, queue just before it. *)
      List.iter
        (fun (i, a) ->
          let root = Span.add ~rid:i ~name:"request" ~start_s:(due i) ~stop_s:a.recv_s () in
          let exec_start = a.recv_s -. (a.exec_ms /. 1000.0) in
          let queue_start = exec_start -. (a.queue_ms /. 1000.0) in
          ignore (Span.add ~parent:root ~rid:i ~name:"serve.queue" ~start_s:queue_start ~stop_s:exec_start ());
          ignore (Span.add ~parent:root ~rid:i ~name:"serve.exec" ~start_s:exec_start ~stop_s:a.recv_s ()))
        all_answers;
      let traced_s = !Span.self_s in
      replay spec ~frames ~reqs steady pool;
      let med name =
        let xs = Span.durations_ms name in
        Report.metric (name ^ "_ms") ~unit_:"ms" ~samples:(List.length xs) (Stats.median_of xs)
      in
      let steady_ans = List.map snd steady_answers in
      let shed = List.filter (fun i -> status i = "rejected") over in
      let shed_lat =
        List.map
          (fun i ->
            match by_idx.(i) with
            | Some a -> (a.recv_s -. due i) *. 1000.0
            | None -> infinity)
          shed
      in
      let rung r = List.length (List.filter (fun (_, a) -> a.ladder = r) over_answers) in
      let count p = List.length (List.filter p steady_ans) in
      let lateness = List.map (fun i -> (run.sent.(i) -. due i) *. 1000.0) all in
      let steady_last_sent = List.fold_left (fun m i -> Float.max m run.sent.(i)) 0.0 steady in
      quantiles "serve.queue_ms" ~unit_:"ms" (List.map (fun a -> a.queue_ms) steady_ans)
      @ quantiles "serve.exec_ms" ~unit_:"ms" exec_ms
      @ quantiles "serve.residual_ms" ~unit_:"ms" (List.map (fun (i, a) -> residual i a) steady_answers)
      @ [
          Report.metric "serve.degraded_share" ~unit_:"share" ~samples:n_steady
            (Stats.share (count (fun a -> a.status = "degraded")) n_steady);
          Report.metric "serve.budget_clipped_share" ~unit_:"share" ~samples:n_steady
            (Stats.share (count (fun a -> contains ~sub:"budget" a.reason)) n_steady);
          Report.metric "serve.shed_share" ~unit_:"share" ~samples:n_over
            (Stats.share (List.length shed) n_over);
          Report.metric "serve.shed_ms.p99" ~unit_:"ms" ~samples:(List.length shed) (Stats.p99_of shed_lat);
          Report.metric "serve.rung.full" ~unit_:"count" ~samples:n_over (float_of_int (rung "full"));
          Report.metric "serve.rung.heuristic" ~unit_:"count" ~samples:n_over (float_of_int (rung "heuristic"));
          Report.metric "serve.rung.fast" ~unit_:"count" ~samples:n_over (float_of_int (rung "fast"));
          Report.metric "pool.tasks_worker" ~unit_:"count" ~samples:1
            (float_of_int (prometheus_counter prom "pool_tasks_worker"));
          Report.metric "pool.tasks_caller" ~unit_:"count" ~samples:1
            (float_of_int (prometheus_counter prom "pool_tasks_caller"));
          Report.metric "gen.lateness_ms.p99" ~unit_:"ms" ~samples:n (Stats.p99_of lateness);
          Report.metric "gen.sent_rps" ~unit_:"req/s" ~samples:n_steady
            (float_of_int n_steady /. (steady_last_sent -. steady_start));
          med "wire.frame_decode"; med "instance.parse"; med "runner.run";
          med "bounds.lower_bound"; med "flat.prepare"; med "flat.greedy";
        ]
      @ (if spec.chain = "default" then [ med "solver.exact" ] else [])
      @ [
          (* The live path is untouched by tracing (spans are placed
             afterwards from stamps the untraced run takes too), so the
             cost is the recorder's own time over the run's length. *)
          Report.metric "obs.overhead_share" ~unit_:"share" ~samples:(Span.count ())
            (traced_s /. float_of_int seconds);
        ]
    end
  in
  let accounting =
    if not trace then []
    else
      let med name = Stats.median_of (Span.durations_ms name) in
      let med_of f = Stats.median_of (List.map f steady_answers) in
      [
        Printf.sprintf
          "accounting (steady medians, ms; per request latency = queue + exec + residual): \
           latency %.2f, queue %.2f, exec %.2f, residual %.2f; \
           exec vs runner.run %.2f (bounds.lower_bound %.2f, flat.prepare %.2f, flat.greedy %.2f); \
           residual vs frame write %.2f, wire decode %.2f, instance parse %.2f"
          (Stats.median_of steady_lat)
          (med_of (fun (_, a) -> a.queue_ms))
          (med_of (fun (_, a) -> a.exec_ms))
          (med_of (fun (i, a) -> residual i a))
          (med "runner.run") (med "bounds.lower_bound") (med "flat.prepare")
          (med "flat.greedy")
          (med_of (fun (i, _) -> (run.written.(i) -. run.sent.(i)) *. 1000.0))
          (med "wire.frame_decode") (med "instance.parse");
        (let by st =
           List.filter_map (fun (_, a) -> if a.status = st then Some a.queue_ms else None)
             steady_answers
         in
         let ok = by "ok" and dg = by "degraded" in
         Printf.sprintf
           "queue wait (median, ms): ok answers %.2f (n=%d), degraded answers %.2f (n=%d)"
           (Stats.median_of ok) (List.length ok) (Stats.median_of dg) (List.length dg));
      ]
  in
  let count_status st idxs = List.length (List.filter (fun i -> status i = st) idxs) in
  let notes =
    [
      Printf.sprintf
        "schedule: %.0f s warm-up and %d steady requests over %.0f s at %.0f req/s, \
         %d overload requests over %.0f s at %.0f req/s"
        warmup_s n_steady steady_s spec.steady_rps n_over spec.overload_s spec.overload_rps;
      (let a = Stats.sorted steady_lat in
       String.concat ", "
         (List.map (fun q -> Printf.sprintf "p%g %.1f ms" (q *. 100.0) (Stats.quantile q a))
            [ 0.9; 0.95; 0.97; 0.98; 0.99 ]));
      Printf.sprintf "steady: ok %d, degraded %d; overload: ok %d, degraded %d, rejected %d"
        (count_status "ok" steady) (count_status "degraded" steady)
        (count_status "ok" over) (count_status "degraded" over)
        (count_status "rejected" over);
    ]
    @ accounting
  in
  { Report.attempted = n + leg_sent; failed; e2e; layers; checks; notes }
