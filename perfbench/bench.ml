(* perfbench: runs one workload of the repository benchmark, checks its
   answers and prints its metrics. The last line of standard output is
   one JSON object: {"correct", "attempted", "failed", "metrics"}; the
   line before it describes the machine and the run.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1
             --cli PATH --out DIR

   --cli is the built confcall executable (the serve workloads spawn
   its daemon); --out is a directory for the daemon's socket and log
   and for the spans a traced run writes at exit. The metric lists come
   from BENCHMARK.json in the working directory. *)

let workloads = [ "serve-deadline"; "serve-mid"; "metro"; "sim-residence" ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 --cli PATH --out DIR";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then begin
    Printf.eprintf "unknown workload %S (expected %s)\n" workload
      (String.concat "|" workloads);
    exit 2
  end;
  let seed = int "seed" and seconds = int "seconds" in
  let trace = int "trace" = 1 in
  let cli = get "cli" and out = get "out" in
  if seconds < 1 then usage ();
  (* A daemon that drops the connection must surface as EPIPE, counted
     as a lost connection, not kill this process and orphan the daemon. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Span.enabled := trace;
  let e2e_names = Report.spec_metrics "BENCHMARK.json" "end_to_end" in
  let layer_names = Report.spec_metrics "BENCHMARK.json" "per_layer" in
  let report =
    match workload with
    | "serve-deadline" -> Serve_wl.run Serve_wl.deadline ~cli ~dir:out ~seed ~seconds ~trace
    | "serve-mid" -> Serve_wl.run Serve_wl.mid ~cli ~dir:out ~seed ~seconds ~trace
    | "metro" -> Metro_wl.run ~seed ~seconds ~trace
    | _ -> Sim_wl.run ~seed ~seconds ~trace
  in
  let report =
    if trace then
      { report with Report.layers = Report.select ~fill:true layer_names report.Report.layers }
    else report
  in
  Report.print_human ~workload ~trace report;
  if trace then
    Span.write_jsonl
      (Filename.concat out (Printf.sprintf "spans-%s-%d.jsonl" workload seed));
  let samples =
    List.map (fun m -> Printf.sprintf "%S: %d" m.Report.name m.Report.samples)
      (report.Report.e2e @ report.Report.layers)
  in
  (* failed_share is printed here and in the report; the result line
     carries it as "attempted" and "failed". Every end-to-end value of an
     untraced run is repeated here, gated or not, for compare.py. *)
  let values =
    if trace then ""
    else
      String.concat ", "
        (List.map
           (fun m -> Printf.sprintf "%S: %s" m.Report.name (Report.json_num m.Report.value))
           report.Report.e2e)
  in
  Printf.printf
    "{\"perfbench\": {\"workload\": %S, \"seed\": %d, \"seconds\": %d, \"trace\": %d, \
     \"nproc\": %d, \"ocaml\": %S, \"profile\": \"release\", \"spans\": %d, \
     \"failed_share\": %s, \"samples\": {%s}, \"e2e\": {%s}}}\n"
    workload seed seconds (if trace then 1 else 0) (Domain.recommended_domain_count ())
    Sys.ocaml_version (Span.count ())
    (Report.json_num
       (List.find (fun m -> m.Report.name = "failed_share") report.Report.e2e).Report.value)
    (String.concat ", " samples) values;
  let metrics =
    if trace then report.Report.layers
    else Report.select ~fill:false e2e_names report.Report.e2e
  in
  print_endline (Report.result_line ~metrics report);
  exit (if Report.correct report then 0 else 1)
