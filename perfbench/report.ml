(* What one workload run produces: its end-to-end metrics, its
   per-layer metrics (traced runs), the correctness checks it ran and
   the operation counts behind [failed_share]. *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;  (** how many measurements the value summarises *)
}

type check = { check : string; passed : bool; detail : string }

type t = {
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : metric list;
  checks : check list;
  notes : string list;  (** free-text lines for the human report *)
}

let metric name ~unit_ ~samples value = { name; value; unit_; samples }
let check check passed detail = { check; passed; detail }

(* VmHWM of a process, in MB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* The metric lists of BENCHMARK.json, as (name, unit) pairs: the
   "end_to_end" ones make the result line of an untraced run, the
   "per_layer" ones that of a traced run. *)
let spec_metrics path key =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let module J = Wire.Json in
  match Result.map (J.member key) (J.parse text) with
  | Ok (Some (J.Arr ms)) ->
    List.map
      (fun m ->
        match (Option.bind (J.member "name" m) J.to_str, Option.bind (J.member "unit" m) J.to_str) with
        | Some n, Some u -> (n, u)
        | _ -> failwith (path ^ ": a metric needs a name and a unit"))
      ms
  | _ -> failwith (Printf.sprintf "%s: no %S list" path key)

(* The result line carries exactly the listed metrics. A layer this
   workload does not run reports 0 there, with sample count 0: it spends
   no time and does no work in it. An end-to-end metric must be measured. *)
let select ~fill names measured =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.name = name) measured with
      | Some m -> m
      | None when fill -> metric name ~unit_ ~samples:0 0.0
      | None -> failwith ("workload does not measure " ^ name))
    names

(* JSON numbers with every digit; a non-finite value (a latency that
   counts a lost request as infinite) is written as the largest float,
   since JSON has no infinity. *)
let json_num x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else Printf.sprintf "%.17g" Float.max_float

let print_human ~workload ~trace r =
  Printf.printf "perfbench %s (%s)\n" workload
    (if trace then "traced" else "untraced");
  let table title ms =
    Printf.printf "%s\n" title;
    List.iter
      (fun m ->
        Printf.printf "  %-30s %16.6g %-8s n=%d\n" m.name m.value m.unit_
          m.samples)
      ms
  in
  table "end-to-end:" r.e2e;
  if r.layers <> [] then table "per-layer:" r.layers;
  Printf.printf "checks:\n";
  List.iter
    (fun c ->
      Printf.printf "  %-4s %s%s\n"
        (if c.passed then "ok" else "FAIL")
        c.check
        (if c.detail = "" then "" else " (" ^ c.detail ^ ")"))
    r.checks;
  List.iter (fun n -> Printf.printf "note: %s\n" n) r.notes;
  Printf.printf "operations: attempted %d, failed %d\n%!" r.attempted r.failed

let correct r = List.for_all (fun c -> c.passed) r.checks

let result_line ~metrics r =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_num m.value) m.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct r) r.attempted r.failed (String.concat ", " fields)
